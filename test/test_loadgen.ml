(* Load generator tests: httperf's accounting (rates, errors, resource
   limits) and the inactive-connection pool. Server side uses a plain
   thttpd+devpoll on a zero-cost kernel. *)

open Sio_sim
open Sio_kernel
open Sio_loadgen

type world = {
  engine : Engine.t;
  host : Host.t;
  net : Sio_net.Network.t;
  proc : Process.t;
  server : Sio_httpd.Thttpd.t;
}

let mk_world ?(costs = Cost_model.zero) ?thttpd_config () =
  let engine = Engine.create ~seed:9 () in
  let host = Host.create ~engine ~costs () in
  let net = Sio_net.Network.create ~engine () in
  let proc = Process.create ~host ~fd_limit:2048 ~name:"server" () in
  let backend =
    match Sio_httpd.Backend.devpoll proc with
    | Ok b -> b
    | Error `Emfile -> Alcotest.fail "devpoll open failed"
  in
  let server =
    match Sio_httpd.Thttpd.start ~proc ~backend ?config:thttpd_config () with
    | Ok t -> t
    | Error `Emfile -> Alcotest.fail "server start failed"
  in
  { engine; host; net; proc; server }

let small_workload =
  {
    Workload.default with
    Workload.request_rate = 200;
    total_connections = 400;
    inactive_connections = 0;
  }

let listener w = Sio_httpd.Thttpd.listener w.server

let test_httperf_completes_all () =
  let w = mk_world () in
  let done_flag = ref false in
  let client =
    Httperf.start ~engine:w.engine ~net:w.net ~listener:(listener w)
      ~workload:small_workload
      ~on_done:(fun () -> done_flag := true)
      ()
  in
  Engine.run ~until:(Time.s 10) w.engine;
  Alcotest.(check bool) "done fired" true !done_flag;
  Alcotest.(check int) "attempted" 400 (Httperf.attempted client);
  Alcotest.(check int) "completed" 400 (Httperf.completed client);
  Alcotest.(check int) "no errors" 0 (Metrics.total_errors (Httperf.errors client));
  Alcotest.(check bool) "is_done" true (Httperf.is_done client);
  Alcotest.(check int) "fds returned" 0 (Httperf.fds_in_use client)

let test_httperf_rate_measured () =
  let w = mk_world () in
  let client =
    Httperf.start ~engine:w.engine ~net:w.net ~listener:(listener w)
      ~workload:small_workload ()
  in
  let t_end = Time.add (Engine.now w.engine) (Workload.generation_duration small_workload) in
  Engine.run ~until:(Time.s 10) w.engine;
  let m = Httperf.metrics client ~t_end in
  Alcotest.(check bool) "avg near target" true
    (abs_float (m.Metrics.reply_rate_avg -. 200.) < 10.);
  Alcotest.(check bool) "latency recorded" true (Histogram.count m.Metrics.latency = 400);
  Alcotest.(check bool) "median sane" true
    (Metrics.median_latency_ms m > 0.0 && Metrics.median_latency_ms m < 100.0)

let test_httperf_fd_limit () =
  (* With a 5-fd budget and a server that never answers, connections
     past the budget must fail client-side with fd_limited. *)
  let w =
    mk_world
      ~thttpd_config:
        {
          Sio_httpd.Thttpd.default_config with
          Sio_httpd.Thttpd.conn =
            {
              Sio_httpd.Conn.default_config with
              Sio_httpd.Conn.doc_bytes = Sio_httpd.Http.default_document_bytes;
            };
          idle_timeout = Time.s 300;
          sweep_period = Time.s 300;
        }
      ()
  in
  (* Stop the server so nothing is ever accepted or answered. *)
  Sio_httpd.Thttpd.stop w.server;
  let workload =
    {
      small_workload with
      Workload.total_connections = 20;
      request_rate = 1000;
      client_fd_limit = 5;
      client_timeout = Time.s 2;
    }
  in
  let client =
    Httperf.start ~engine:w.engine ~net:w.net ~listener:(listener w) ~workload ()
  in
  Engine.run ~until:(Time.s 8) w.engine;
  let errors = Httperf.errors client in
  Alcotest.(check int) "fd-limited failures" 15 errors.Metrics.fd_limited;
  Alcotest.(check int) "the 5 in-budget conns timed out" 5 errors.Metrics.timeouts

let test_httperf_port_time_wait () =
  (* Ports stay quarantined for TIME_WAIT after completion. *)
  let w = mk_world () in
  let workload =
    {
      small_workload with
      Workload.total_connections = 10;
      request_rate = 100;
      time_wait = Time.s 60;
    }
  in
  let client =
    Httperf.start ~engine:w.engine ~net:w.net ~listener:(listener w) ~workload ()
  in
  Engine.run ~until:(Time.s 30) w.engine;
  Alcotest.(check int) "all done" 10 (Httperf.completed client);
  Alcotest.(check int) "fds free" 0 (Httperf.fds_in_use client);
  Alcotest.(check int) "ports still in TIME_WAIT" 10 (Httperf.ports_in_use client);
  Engine.run ~until:(Time.s 70) w.engine;
  Alcotest.(check int) "ports released after TIME_WAIT" 0 (Httperf.ports_in_use client)

let test_httperf_port_exhaustion () =
  let w = mk_world () in
  let workload =
    {
      small_workload with
      Workload.total_connections = 10;
      request_rate = 100;
      ephemeral_ports = 4;
    }
  in
  let client =
    Httperf.start ~engine:w.engine ~net:w.net ~listener:(listener w) ~workload ()
  in
  Engine.run ~until:(Time.s 10) w.engine;
  let errors = Httperf.errors client in
  Alcotest.(check bool) "port-limited errors occur" true (errors.Metrics.port_limited > 0);
  Alcotest.(check int) "terminal accounting consistent" 10
    (Httperf.completed client + Metrics.total_errors errors)

let test_inactive_pool_establishes () =
  let w = mk_world () in
  let workload = { small_workload with Workload.inactive_connections = 20 } in
  let rng = Rng.split (Engine.rng w.engine) in
  let pool =
    Inactive.start ~engine:w.engine ~net:w.net ~listener:(listener w) ~workload ~rng ()
  in
  Engine.run ~until:(Time.s 3) w.engine;
  Alcotest.(check int) "all established" 20 (Inactive.established pool);
  Alcotest.(check int) "server holds them" 20
    (Sio_httpd.Thttpd.connection_count w.server);
  Alcotest.(check int) "no replies for partial requests" 0
    (Sio_httpd.Thttpd.stats w.server).Sio_httpd.Server_stats.replies;
  Inactive.stop pool

let test_inactive_reopen_after_timeout () =
  let config =
    {
      Sio_httpd.Thttpd.default_config with
      Sio_httpd.Thttpd.idle_timeout = Time.s 2;
      sweep_period = Time.s 1;
    }
  in
  let w = mk_world ~thttpd_config:config () in
  let workload =
    {
      small_workload with
      Workload.inactive_connections = 5;
      inactive_reopen_delay = Time.ms 100;
    }
  in
  let rng = Rng.split (Engine.rng w.engine) in
  let pool =
    Inactive.start ~engine:w.engine ~net:w.net ~listener:(listener w) ~workload ~rng ()
  in
  Engine.run ~until:(Time.s 12) w.engine;
  (* The sweep keeps closing them; the pool keeps coming back. *)
  Alcotest.(check bool) "reopened at least once per client" true
    (Inactive.reopens pool >= 5);
  Alcotest.(check bool) "population maintained" true (Inactive.established pool >= 4);
  Inactive.stop pool

let test_metrics_short_run_fallback () =
  let w = mk_world () in
  let workload =
    { small_workload with Workload.total_connections = 50; request_rate = 500 }
  in
  let client =
    Httperf.start ~engine:w.engine ~net:w.net ~listener:(listener w) ~workload ()
  in
  (* 50 conns at 500/s: only 100 ms of generation, under the 1 s
     sampling interval. *)
  let t_end = Time.add (Engine.now w.engine) (Workload.generation_duration workload) in
  Engine.run ~until:(Time.s 5) w.engine;
  let m = Httperf.metrics client ~t_end in
  Alcotest.(check bool) "fallback rate close to target" true
    (abs_float (m.Metrics.reply_rate_avg -. 500.) < 50.)

let test_sweep_min_duration () =
  let base =
    Experiment.default_config
      ~kind:(Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 })
      ~workload:{ small_workload with Workload.total_connections = 100 }
  in
  let o = Experiment.run (Sweep.point_config ~base ~min_duration_s:2 400) in
  (* 100 conns at 400/s would be 0.25 s; min_duration raises it. *)
  Alcotest.(check bool) "at least 2s worth of conns" true
    (o.Experiment.metrics.Metrics.attempted >= 800)

let test_active_latency_profile () =
  let run profile =
    let w = mk_world () in
    let workload =
      { small_workload with Workload.total_connections = 100; active_latency = profile }
    in
    let rng = Rng.split (Engine.rng w.engine) in
    let client =
      Httperf.start ~engine:w.engine ~net:w.net ~listener:(listener w) ~workload ~rng ()
    in
    let t_end = Time.add (Engine.now w.engine) (Workload.generation_duration workload) in
    Engine.run ~until:(Time.s 10) w.engine;
    let m = Httperf.metrics client ~t_end in
    (Httperf.completed client, Metrics.median_latency_ms m)
  in
  let lan_done, lan_median = run Sio_net.Latency_profile.Lan in
  let wan_done, wan_median =
    run (Sio_net.Latency_profile.Wan { base = Time.ms 50; jitter = Time.ms 20 })
  in
  Alcotest.(check int) "lan all done" 100 lan_done;
  Alcotest.(check int) "wan all done" 100 wan_done;
  (* Two extra one-way trips of >=50ms each way: median at least 100ms
     above the LAN case. *)
  Alcotest.(check bool) "wan median >= lan + 100ms" true
    (wan_median >= lan_median +. 100.)

let test_workload_validation () =
  Alcotest.(check bool) "scaled clamps at 100" true
    ((Workload.scaled Workload.default 0.000001).Workload.total_connections = 100);
  let raised =
    try
      ignore (Workload.scaled Workload.default (-1.));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative factor rejected" true raised;
  Alcotest.(check int) "generation duration" (Time.s 50)
    (Workload.generation_duration
       { Workload.default with Workload.request_rate = 700; total_connections = 35_000 })

let suite =
  [
    Alcotest.test_case "httperf completes all connections" `Quick test_httperf_completes_all;
    Alcotest.test_case "httperf measures the reply rate" `Quick test_httperf_rate_measured;
    Alcotest.test_case "httperf client fd limit" `Quick test_httperf_fd_limit;
    Alcotest.test_case "ports quarantined in TIME_WAIT" `Quick test_httperf_port_time_wait;
    Alcotest.test_case "port exhaustion" `Quick test_httperf_port_exhaustion;
    Alcotest.test_case "inactive pool establishes" `Quick test_inactive_pool_establishes;
    Alcotest.test_case "inactive clients reopen after timeout" `Quick
      test_inactive_reopen_after_timeout;
    Alcotest.test_case "metrics fallback for short runs" `Quick
      test_metrics_short_run_fallback;
    Alcotest.test_case "sweep enforces a minimum duration" `Quick test_sweep_min_duration;
    Alcotest.test_case "active latency profile" `Quick test_active_latency_profile;
    Alcotest.test_case "workload validation" `Quick test_workload_validation;
  ]
