type t = {
  dir : string;
  version : string;
  mutable hits : int;
  mutable misses : int;
}

(* What one cache file holds.  The key is stored redundantly and checked on
   read: a digest collision (or a hand-edited file) degrades to a miss
   instead of silently decoding the wrong experiment's bytes. *)
type entry = { e_key : string; e_stdout : string; e_payload : bytes }

let default_version () =
  match Digest.file Sys.executable_name with
  | d -> Digest.to_hex d
  | exception Sys_error _ -> "unversioned"

let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      raise (Unix.Unix_error (Unix.ENOTDIR, "mkdir", dir))
  end
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) when Sys.is_directory dir -> ()
  end

let create ?(dir = "_cache") ?version () =
  let version = match version with Some v -> v | None -> default_version () in
  mkdir_p dir;
  { dir; version; hits = 0; misses = 0 }

let path t ~key =
  let digest = Digest.to_hex (Digest.string (t.version ^ "\x00" ^ key)) in
  Filename.concat t.dir (digest ^ ".job")

let find t ~key =
  let miss () =
    t.misses <- t.misses + 1;
    None
  in
  match In_channel.with_open_bin (path t ~key) In_channel.input_all with
  | exception Sys_error _ -> miss ()
  | raw ->
      (* 16-byte digest prefix over the marshalled entry: a truncated,
         torn or bit-flipped file fails here and degrades to a miss
         before Marshal ever parses it. *)
      if String.length raw < 16 then miss ()
      else begin
        let blob = String.sub raw 16 (String.length raw - 16) in
        if Digest.string blob <> String.sub raw 0 16 then miss ()
        else
          match (Marshal.from_string blob 0 : entry) with
          | exception _ -> miss ()
          | e ->
              if e.e_key = key then begin
                t.hits <- t.hits + 1;
                Some (e.e_stdout, e.e_payload)
              end
              else miss ()
      end

(* Crash-atomic write: temp + fsync + rename, then fsync the directory so
   the rename survives a crash.  A SIGKILL at any instant leaves either no
   entry or a complete one — what lets a re-run after a crash replay every
   entry the killed run stored.
   Some filesystems refuse fsync on a directory fd; losing that durability
   is acceptable, losing the write is not. *)
let write_atomic path content =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length content in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd content !written (n - !written)
      done;
      Unix.fsync fd);
  Sys.rename tmp path;
  try
    let dfd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close dfd)
      (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
  with Unix.Unix_error _ -> ()

let store t ~key ~stdout ~payload =
  let blob =
    Marshal.to_string { e_key = key; e_stdout = stdout; e_payload = payload } []
  in
  write_atomic (path t ~key) (Digest.string blob ^ blob)

let hits t = t.hits
let misses t = t.misses
let dir t = t.dir
