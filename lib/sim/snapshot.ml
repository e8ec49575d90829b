type t = {
  s_format : int;
  s_binary : string;
  s_time : float;
  s_hash : string;
  s_payload : string;
}

exception Incompatible of string

let () =
  Printexc.register_printer (function
    | Incompatible msg -> Some (Printf.sprintf "Snapshot.Incompatible(%s)" msg)
    | _ -> None)

let format_version = 1

(* The payload embeds code pointers ([Marshal.Closures]), so it is only
   meaningful inside the binary that produced it.  Hashing the executable
   once per process is enough: a given process never changes binaries. *)
let self_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let time s = s.s_time
let hash s = s.s_hash

let capture net =
  {
    s_format = format_version;
    s_binary = Lazy.force self_digest;
    s_time = Network.now net;
    s_hash = Network.state_hash net;
    s_payload = Network.serialize net;
  }

let restore s =
  if s.s_format <> format_version then
    raise
      (Incompatible
         (Printf.sprintf "snapshot format %d, this binary speaks %d" s.s_format
            format_version));
  if s.s_binary <> Lazy.force self_digest then
    raise
      (Incompatible
         (Printf.sprintf
            "snapshot from binary %s cannot be restored by binary %s \
             (Marshal closures are binary-specific)"
            s.s_binary (Lazy.force self_digest)));
  let net = Network.deserialize s.s_payload in
  let h = Network.state_hash net in
  if h <> s.s_hash then
    raise
      (Incompatible
         (Printf.sprintf
            "restored state hashes to %s, snapshot recorded %s (corrupt \
             payload?)"
            h s.s_hash));
  net

let magic = "ccstarve-snapshot\n"

let save path s =
  let blob = Marshal.to_string s [] in
  Runner.Cache.write_atomic path (magic ^ Digest.string blob ^ blob)

let load path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let mlen = String.length magic in
  if String.length content < mlen + 16 || String.sub content 0 mlen <> magic
  then raise (Incompatible (path ^ ": not a snapshot file"));
  let digest = String.sub content mlen 16 in
  let blob = String.sub content (mlen + 16) (String.length content - mlen - 16) in
  if Digest.string blob <> digest then
    raise (Incompatible (path ^ ": corrupt snapshot (digest mismatch)"));
  (Marshal.from_string blob 0 : t)

(* --- Checkpointed runs --------------------------------------------------- *)

let run_with_checkpoints ?(interval = 1.0) ?on_checkpoint net =
  if not (interval > 0.) then
    invalid_arg "Snapshot.run_with_checkpoints: interval must be positive";
  let horizon = Network.horizon net in
  let emit t =
    match on_checkpoint with Some f -> f (capture t) | None -> ()
  in
  let rec loop t =
    let next = Network.now t +. interval in
    if next >= horizon then Network.run t
    else begin
      Network.run_to t next;
      emit t;
      loop t
    end
  in
  loop net

let first_divergence a b =
  let rec go a b =
    match (a, b) with
    | (ta, fa) :: resta, (tb, fb) :: restb ->
        if fa = fb then go resta restb
        else begin
          let component =
            (* First component present in either fingerprint whose digest
               differs (or is missing on one side). *)
            let rec scan = function
              | (name, d) :: rest -> begin
                  match List.assoc_opt name fb with
                  | Some d' when d' = d -> scan rest
                  | _ -> Some name
                end
              | [] -> (
                  match
                    List.find_opt (fun (n, _) -> not (List.mem_assoc n fa)) fb
                  with
                  | Some (n, _) -> Some n
                  | None -> None)
            in
            scan fa
          in
          Some (Float.min ta tb, Option.value component ~default:"?")
        end
    | [], [] -> None
    | _ -> None
  in
  go a b
