(* The hybrid server under a load ramp: watch it ride RT signals while
   the load is light, shift to /dev/poll as the signal queue backs up,
   and drop back once the storm passes — the switching behaviour the
   paper sketches in Sections 4 and 6 but could not build.

     dune exec examples/hybrid_demo.exe
*)

open Scalanio

let () =
  let engine = Engine.create ~seed:21 () in
  let host = Host.create ~engine () in
  let net = Network.create ~engine () in
  let proc = Process.create ~host ~fd_limit:4096 ~name:"hybrid" () in
  let config =
    {
      Hybrid.default_config with
      Hybrid.sigtimedwait4_batch = 4;
      switch_streak = 3;
    }
  in
  let server =
    match Hybrid.start ~proc ~config () with
    | Ok t -> t
    | Error `Emfile -> failwith "hybrid start failed"
  in
  let listener = Hybrid.listener server in

  (* Load ramp: 2 s quiet (300/s), 4 s storm (1400/s, beyond the host's
     ~1100/s capacity), 4 s quiet again. *)
  let phases = [ (300, Time.s 2); (1400, Time.s 4); (300, Time.s 4) ] in
  Fmt.pr "load ramp: %a@.@."
    Fmt.(list ~sep:comma (pair ~sep:(any "/s for ") int Time.pp))
    phases;
  let start_phase rate duration at =
    ignore
      (Engine.at engine at (fun () ->
           let workload =
             {
               Workload.default with
               Workload.request_rate = rate;
               total_connections =
                 int_of_float (float_of_int rate *. Time.to_sec_f duration);
               inactive_connections = 0;
             }
           in
           ignore (Httperf.start ~engine ~net ~listener ~workload ())))
  in
  let _ =
    List.fold_left
      (fun at (rate, duration) ->
        start_phase rate duration at;
        Time.add at duration)
      (Time.ms 100) phases
  in

  (* Ticker: mode + throughput once per second. *)
  let stats = Hybrid.stats server in
  let last = ref 0 in
  let rec tick t =
    ignore
      (Engine.at engine t (fun () ->
           let mode = Server_core.string_of_mode (Hybrid.mode server) in
           Fmt.pr "t=%4.1fs  mode=%-8s replies/s=%5d  switches=%d  overflows=%d@."
             (Time.to_sec_f t) mode
             (stats.Sio_httpd.Server_stats.replies - !last)
             stats.Sio_httpd.Server_stats.mode_switches
             stats.Sio_httpd.Server_stats.overflow_recoveries;
           last := stats.Sio_httpd.Server_stats.replies;
           if t < Time.s 12 then tick (Time.add t (Time.s 1))))
  in
  tick (Time.s 1);
  Engine.run ~until:(Time.s 13) engine;
  Hybrid.stop server;
  Fmt.pr "@.total replies: %d, mode switches: %d@."
    stats.Sio_httpd.Server_stats.replies stats.Sio_httpd.Server_stats.mode_switches
