open Sim

type scenario = {
  name : string;
  deterministic : bool;
      (* no random loss, no stochastic jitter: eligible for the
         flow-permutation check *)
  nflows : int;
  build : scale:int -> shift:float -> permute:bool -> Network.config;
}

(* Builder helpers: [scale] multiplies every byte-valued quantity (rate,
   mss, buffer, initial queue), [shift] translates every absolute time.
   CCA instances are created inside the builder so each variant starts
   cold. *)

let mss_of ~scale = scale * 1500

let reno ~scale () =
  Reno.make
    ~params:{ Reno.default_params with Reno.mss = mss_of ~scale }
    ()

let vegas ~scale () =
  Vegas.make
    ~params:{ Vegas.default_params with Vegas.mss = mss_of ~scale }
    ()

let copa ~scale () =
  Copa.make ~params:{ Copa.default_params with Copa.mss = mss_of ~scale } ()

let cubic ~scale () =
  Cubic.make
    ~params:{ Cubic.default_params with Cubic.mss = mss_of ~scale }
    ()

let bbr ~scale () =
  Bbr.make ~params:{ Bbr.default_params with Bbr.mss = mss_of ~scale } ()

let order ~permute flows = if permute then List.rev flows else flows

(* Every scenario is fault-free and constant-rate, so every
   transformation axis is well-defined. *)
let matrix () =
  [
    {
      name = "reno-solo-initq";
      deterministic = true;
      nflows = 1;
      build =
        (fun ~scale ~shift ~permute ->
          let s = float_of_int scale in
          ignore permute;
          Network.config
            ~rate:(Link.Constant (s *. Units.mbps 10.))
            ~rm:(Units.ms 40.) ~seed:11 ~t0:shift ~duration:20.
            ~initial_queue_bytes:(scale * 30_000)
            [
              Network.flow ~start_time:shift ~mss:(mss_of ~scale)
                (reno ~scale ());
            ]);
    };
    {
      name = "reno-pair-staggered";
      deterministic = true;
      nflows = 2;
      build =
        (fun ~scale ~shift ~permute ->
          let s = float_of_int scale in
          Network.config
            ~rate:(Link.Constant (s *. Units.mbps 12.))
            ~rm:(Units.ms 30.) ~seed:12 ~t0:shift ~duration:24.
            ~buffer:(scale * 90_000)
            (order ~permute
               [
                 Network.flow ~start_time:shift ~mss:(mss_of ~scale)
                   (reno ~scale ());
                 Network.flow ~start_time:(shift +. 3.) ~mss:(mss_of ~scale)
                   (reno ~scale ());
               ]));
    };
    {
      name = "reno-vs-vegas";
      deterministic = true;
      nflows = 2;
      build =
        (fun ~scale ~shift ~permute ->
          let s = float_of_int scale in
          Network.config
            ~rate:(Link.Constant (s *. Units.mbps 16.))
            ~rm:(Units.ms 50.) ~seed:13 ~t0:shift ~duration:24.
            (order ~permute
               [
                 Network.flow ~start_time:shift ~mss:(mss_of ~scale)
                   (reno ~scale ());
                 Network.flow ~start_time:(shift +. 1.) ~mss:(mss_of ~scale)
                   (vegas ~scale ());
               ]));
    };
    {
      name = "copa-delack";
      deterministic = true;
      nflows = 1;
      build =
        (fun ~scale ~shift ~permute ->
          let s = float_of_int scale in
          ignore permute;
          Network.config
            ~rate:(Link.Constant (s *. Units.mbps 8.))
            ~rm:(Units.ms 40.) ~seed:14 ~t0:shift ~duration:20.
            [
              Network.flow ~start_time:shift ~mss:(mss_of ~scale)
                ~ack_policy:
                  (Network.Delayed { count = 2; timeout = Units.ms 5. })
                (copa ~scale ());
            ]);
    };
    {
      name = "cubic-vs-bbr-lossy";
      deterministic = false;
      nflows = 2;
      build =
        (fun ~scale ~shift ~permute ->
          let s = float_of_int scale in
          Network.config
            ~rate:(Link.Constant (s *. Units.mbps 20.))
            ~rm:(Units.ms 30.) ~seed:15 ~t0:shift ~duration:20.
            ~buffer:(scale * 150_000)
            (order ~permute
               [
                 Network.flow ~start_time:shift ~mss:(mss_of ~scale)
                   ~loss_rate:0.005 (cubic ~scale ());
                 Network.flow ~start_time:(shift +. 2.) ~mss:(mss_of ~scale)
                   (bbr ~scale ());
               ]));
    };
    {
      name = "vegas-aggregate-jitter";
      deterministic = false;
      nflows = 1;
      build =
        (fun ~scale ~shift ~permute ->
          let s = float_of_int scale in
          ignore permute;
          Network.config
            ~rate:(Link.Constant (s *. Units.mbps 10.))
            ~rm:(Units.ms 40.) ~seed:16 ~t0:shift ~duration:20.
            [
              Network.flow ~start_time:shift ~mss:(mss_of ~scale)
                ~jitter:(Jitter.Uniform { lo = 0.; hi = Units.ms 4. })
                ~jitter_bound:(Units.ms 5.)
                ~ack_policy:(Network.Aggregate { period = 0.004 })
                (vegas ~scale ());
            ]);
    };
  ]

(* The shift must be a multiple of every Aggregate ack period in the
   matrix (16 / 0.004 = 4000 exactly) and a power of two so the time
   translation itself is exact at the config level. *)
let shift_delta = 16.

let run_throughputs cfg =
  let net = Network.run_config cfg in
  Network.throughputs net ()

(* The scenario's applicable checks: rescale and shift always,
   permutation when deterministic with >= 2 flows. *)
let verdicts scn =
  let base = run_throughputs (scn.build ~scale:1 ~shift:0. ~permute:false) in
  let rescale =
    let scaled = run_throughputs (scn.build ~scale:2 ~shift:0. ~permute:false) in
    Array.to_list
      (Array.mapi
         (fun i x ->
           (* Doubling every byte quantity is a power-of-two float
              scaling: exact, so the verdict is too. *)
           Oracle.exact ~oracle:"rescale-x2"
             ~scenario:(Printf.sprintf "%s/flow%d" scn.name i)
             ~expected:(2. *. x) ~observed:scaled.(i)
             ~detail:"rate, mss, buffer, initial queue all x2" ())
         base)
  in
  let shifted_vs =
    let shifted =
      run_throughputs (scn.build ~scale:1 ~shift:shift_delta ~permute:false)
    in
    Array.to_list
      (Array.mapi
         (fun i x ->
           (* Ulp loss at the shifted magnitude can flip event ties and
              compound through CCA feedback; 2% is far below any real
              shift-variance bug and far above rounding noise. *)
           Oracle.check ~oracle:"time-shift"
             ~scenario:(Printf.sprintf "%s/flow%d" scn.name i)
             ~expected:x ~observed:shifted.(i)
             ~tolerance:(0.02 *. Float.max x 1.)
             ~detail:(Printf.sprintf "t0 += %.0fs" shift_delta)
             ())
         base)
  in
  let permuted_vs =
    if (not scn.deterministic) || scn.nflows < 2 then []
    else begin
      let permuted =
        run_throughputs (scn.build ~scale:1 ~shift:0. ~permute:true)
      in
      let n = Array.length base in
      Array.to_list
        (Array.mapi
           (fun i x ->
             (* Flow i of the base listing is flow n-1-i of the reversed
                one.  Tolerance, not equality: permuting changes
                event-queue insertion order, which legitimately reorders
                simultaneous events. *)
             Oracle.check ~oracle:"flow-permutation"
               ~scenario:(Printf.sprintf "%s/flow%d" scn.name i)
               ~expected:x
               ~observed:permuted.(n - 1 - i)
               ~tolerance:(0.01 *. Float.max x 1.)
               ~detail:"flow list reversed" ())
           base)
    end
  in
  rescale @ shifted_vs @ permuted_vs

let jitter_monotonicity () =
  let throughput_with delay =
    let jitter =
      if delay = 0. then Jitter.No_jitter else Jitter.Constant delay
    in
    let cfg =
      Network.config
        ~rate:(Link.Constant (Units.mbps 10.))
        ~rm:(Units.ms 40.) ~seed:17 ~duration:20.
        [ Network.flow ~jitter ~jitter_bound:(Units.ms 40.) (reno ~scale:1 ()) ]
    in
    (run_throughputs cfg).(0)
  in
  let delays = [ 0.; Units.ms 10.; Units.ms 30. ] in
  let xs = List.map throughput_with delays in
  let rec pairs = function
    | (d0, x0) :: ((d1, x1) :: _ as rest) ->
        (* Non-increasing with 5% slack: a longer ACK path must not make
           an ACK-clocked flow faster. *)
        (* Only an *increase* violates monotonicity: judge the excess
           of the slower-path throughput over the faster-path one. *)
        Oracle.check ~oracle:"jitter-monotonic"
          ~scenario:(Printf.sprintf "reno-jitter-%.0fms" (Units.to_ms d1))
          ~expected:0. ~observed:(Float.max 0. (x1 -. x0))
          ~tolerance:(0.05 *. x0)
          ~detail:
            (Printf.sprintf "throughput(%.0fms)=%.0f vs throughput(%.0fms)=%.0f"
               (Units.to_ms d0) x0 (Units.to_ms d1) x1)
          ()
        :: pairs rest
    | _ -> []
  in
  pairs (List.combine delays xs)

let all () =
  List.concat_map verdicts (matrix ()) @ jitter_monotonicity ()
