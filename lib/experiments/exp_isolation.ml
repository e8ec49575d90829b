(* Throughputs, bytes/s. *)
type outcome = {
  fifo_copa : float;
  fifo_blast : float;
  drr_copa : float;
  drr_blast : float;
}

let rate = Sim.Units.mbps 24.
let rm = 0.04

let one ~discipline ~duration =
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~discipline ~rm ~duration
         [
           Sim.Network.flow (Copa.make ());
           (* A 240-packet fixed window never backs off: the BDP is 80
              packets, so it keeps a permanent ~160-packet standing queue
              (~80 ms of delay) in the shared case. *)
           Sim.Network.flow (Const_cwnd.make ~cwnd_packets:240. ());
         ])
  in
  let t0 = duration /. 2. in
  ( Sim.Network.throughput net ~flow:0 ~t0 ~t1:duration,
    Sim.Network.throughput net ~flow:1 ~t0 ~t1:duration )

let measure ?(quick = false) () =
  let duration = if quick then 20. else 40. in
  let fifo_copa, fifo_blast = one ~discipline:Sim.Link.Fifo ~duration in
  let drr_copa, drr_blast =
    one ~discipline:(Sim.Link.Drr { quantum = 1500 }) ~duration
  in
  { fifo_copa; fifo_blast; drr_copa; drr_blast }

let run ?quick () =
  let o = measure ?quick () in
  [
    Report.row ~id:"E15a" ~label:"copa vs unresponsive blaster, shared FIFO"
      ~paper:"delay-based flow reads the blaster's queue as congestion"
      ~measured:
        (Printf.sprintf "copa %s vs blast %s" (Report.mbps o.fifo_copa)
           (Report.mbps o.fifo_blast))
      ~ok:(o.fifo_copa < 0.25 *. rate);
    Report.row ~id:"E15b" ~label:"same flows, DRR per-flow isolation"
      ~paper:"conclusion: stronger isolation sidesteps the e2e dilemma"
      ~measured:
        (Printf.sprintf "copa %s vs blast %s" (Report.mbps o.drr_copa)
           (Report.mbps o.drr_blast))
      ~ok:(o.drr_copa > 0.4 *. rate && o.drr_copa > 2. *. o.fifo_copa);
  ]
