let make ?(cwnd_packets = 10.) ?(mss = Cca.default_mss) () =
  let cwnd_bytes = cwnd_packets *. float_of_int mss in
  {
    Cca.name = "const-cwnd";
    on_ack = (fun _ -> ());
    on_loss = (fun _ -> ());
    on_send = (fun _ -> ());
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> cwnd_bytes);
    pacing_rate = (fun () -> None);
    inspect = (fun () -> [ ("cwnd", cwnd_bytes) ]);
  }
