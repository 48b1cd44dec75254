(* The paper's scenario as a runnable example: a 6 KB static-content
   server facing a mix of active requesters and idle, high-latency
   connections — printing live per-second statistics so the effect of
   the chosen event backend is visible.

     dune exec examples/static_server.exe -- devpoll 251
     dune exec examples/static_server.exe -- poll 501
     dune exec examples/static_server.exe -- phhttpd 501
*)

open Scalanio

let usage () =
  Fmt.epr
    "usage: static_server [select|poll|devpoll|devpoll-nommap|epoll|phhttpd|hybrid] \
     [inactive-count]@.";
  exit 2

let () =
  let backend = if Array.length Sys.argv > 1 then Sys.argv.(1) else "devpoll" in
  let inactive =
    if Array.length Sys.argv > 2 then
      match int_of_string_opt Sys.argv.(2) with Some n when n >= 0 -> n | _ -> usage ()
    else 251
  in
  let kind = match Experiment.kind_of_string backend with Ok k -> k | Error _ -> usage () in
  let rate = 800 in
  let workload =
    {
      Workload.default with
      Workload.request_rate = rate;
      total_connections = 8 * rate;
      inactive_connections = inactive;
    }
  in
  Fmt.pr "static_server: %a, %d idle connections, %d req/s for %d connections@."
    Experiment.pp_server_kind kind inactive rate
    workload.Workload.total_connections;

  (* Wire the world up by hand so we can peek every second; the server
     itself starts the way every experiment starts it. *)
  let cfg = Experiment.default_config ~kind ~workload in
  let engine = Engine.create ~seed:11 () in
  let host = Host.create ~engine () in
  let net = Network.create ~engine () in
  let proc = Process.create ~host ~fd_limit:4096 ~name:"www" () in
  let server = Experiment.start_server cfg proc in
  let rng = Rng.split (Engine.rng engine) in
  let pool =
    Inactive.start ~engine ~net ~listener:server.Experiment.listener ~workload ~rng ()
  in
  Engine.run ~until:(Time.s 2) engine;
  let client = Httperf.start ~engine ~net ~listener:server.listener ~workload () in

  (* Live ticker: one line per simulated second. *)
  let last_replies = ref 0 in
  let rec tick t =
    ignore
      (Engine.at engine t (fun () ->
           let total = Httperf.completed client in
           Fmt.pr
             "t=%5.1fs  replies/s=%4d  total=%6d  in-flight=%4d  errors=%4d  cpu=%5.1f%%  idle-conns=%3d@."
             (Time.to_sec_f t) (total - !last_replies) total
             (Httperf.in_flight client)
             (Metrics.total_errors (Httperf.errors client))
             (100. *. Host.(Cpu.utilization host.cpu ~now:t))
             (Inactive.established pool);
           last_replies := total;
           if not (Httperf.is_done client) then tick (Time.add t (Time.s 1))))
  in
  tick (Time.add (Engine.now engine) (Time.s 1));
  let gen_end = Time.add (Engine.now engine) (Workload.generation_duration workload) in
  Engine.run ~until:(Time.add gen_end (Time.s 6)) engine;

  let m = Httperf.metrics client ~t_end:gen_end in
  Fmt.pr "@.summary:@.";
  Fmt.pr "%a@." Metrics.pp_row_header ();
  Fmt.pr "%a@." Metrics.pp_row m;
  Fmt.pr "server: %a@." Sio_httpd.Server_stats.pp server.stats
