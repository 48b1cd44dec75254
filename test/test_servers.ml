(* End-to-end server tests: each server implementation faces real
   clients through the simulated network. Zero-cost kernel: these
   check semantics (who replied, who timed out, which mode), not
   performance. *)

open Sio_sim
open Sio_kernel
open Sio_httpd

type world = {
  engine : Engine.t;
  host : Host.t;
  net : Sio_net.Network.t;
  proc : Process.t;
}

let mk_world ?(costs = Cost_model.zero) () =
  let engine = Engine.create ~seed:5 () in
  let host = Host.create ~engine ~costs () in
  let net = Sio_net.Network.create ~engine () in
  let proc = Process.create ~host ~fd_limit:2048 ~name:"server" () in
  { engine; host; net; proc }

let quick_conn w listener =
  (* One client fetching the default document; returns a getter for
     the bytes received. *)
  let received = ref 0 in
  let expected = Http.response_bytes ~body_bytes:Http.default_document_bytes in
  let request = Http.build_request ~path:"/index.html" in
  let handlers =
    {
      Tcp.null_handlers with
      Tcp.on_established =
        (fun c ->
          Tcp.client_send c ~bytes_len:(String.length request) ~payload:request);
      on_bytes =
        (fun c n ->
          received := !received + n;
          if !received >= expected then Tcp.client_close c);
    }
  in
  ignore (Tcp.connect ~net:w.net ~listener ~handlers ());
  fun () -> !received

let expected_bytes = Http.response_bytes ~body_bytes:Http.default_document_bytes

(* --- thttpd --- *)

let thttpd_with backend_of w =
  match Thttpd.start ~proc:w.proc ~backend:(backend_of w.proc) () with
  | Ok t -> t
  | Error `Emfile -> Alcotest.fail "thttpd start failed"

let poll_backend proc = Backend.poll proc
let select_backend proc = Backend.select proc
let epoll_backend proc = Backend.epoll proc

let devpoll_backend proc =
  match Backend.devpoll proc with
  | Ok b -> b
  | Error `Emfile -> Alcotest.fail "devpoll open failed"

let test_thttpd_serves backend_of () =
  let w = mk_world () in
  let t = thttpd_with backend_of w in
  let got = quick_conn w (Thttpd.listener t) in
  Engine.run ~until:(Time.s 1) w.engine;
  Alcotest.(check int) "full response" expected_bytes (got ());
  Alcotest.(check int) "one reply" 1 (Thttpd.stats t).Server_stats.replies;
  Alcotest.(check int) "conn table drained" 0 (Thttpd.connection_count t);
  Thttpd.stop t

(* A client that dribbles its request in arbitrary chunks: the server
   must accumulate until the terminator arrives, whatever the split. *)
let test_thttpd_chunked_requests () =
  let w = mk_world () in
  let t = thttpd_with devpoll_backend w in
  let request = Http.build_request ~path:"/index.html" in
  let rng = Rng.create ~seed:77 in
  let run_one () =
    let received = ref 0 in
    let expected = expected_bytes in
    let handlers =
      {
        Tcp.null_handlers with
        Tcp.on_established =
          (fun c ->
            (* Send in 1..5 random-sized chunks, spaced 1 ms apart. *)
            let n = String.length request in
            let rec cuts acc k =
              if k = 0 then List.sort_uniq compare (0 :: n :: acc)
              else cuts (Rng.int_in rng 1 (n - 1) :: acc) (k - 1)
            in
            let points = cuts [] (Rng.int_in rng 0 4) in
            let rec send_pieces i = function
              | a :: (b :: _ as rest) ->
                  ignore
                    (Engine.after w.engine (Time.ms i) (fun () ->
                         Tcp.client_send c ~bytes_len:(b - a)
                           ~payload:(String.sub request a (b - a))));
                  send_pieces (i + 1) rest
              | [ _ ] | [] -> ()
            in
            send_pieces 0 points);
        on_bytes =
          (fun c n ->
            received := !received + n;
            if !received >= expected then Tcp.client_close c);
      }
    in
    ignore (Tcp.connect ~net:w.net ~listener:(Thttpd.listener t) ~handlers ());
    fun () -> !received
  in
  let getters = List.init 20 (fun _ -> run_one ()) in
  Engine.run ~until:(Time.s 2) w.engine;
  List.iteri
    (fun i got ->
      Alcotest.(check int) (Printf.sprintf "chunked conn %d" i) expected_bytes (got ()))
    getters;
  Thttpd.stop t

let test_thttpd_many_conns () =
  let w = mk_world () in
  let t = thttpd_with devpoll_backend w in
  let getters = List.init 50 (fun _ -> quick_conn w (Thttpd.listener t)) in
  Engine.run ~until:(Time.s 2) w.engine;
  List.iteri
    (fun i got -> Alcotest.(check int) (Printf.sprintf "conn %d" i) expected_bytes (got ()))
    getters;
  Alcotest.(check int) "replies" 50 (Thttpd.stats t).Server_stats.replies;
  Thttpd.stop t

(* --- every server --- *)

(* The three servers behind one handle, on [proc] (default: the
   world's), with the idle sweep's timeout and period. thttpd runs on
   /dev/poll. *)
type server = {
  listener : Socket.t;
  stats : Server_stats.t;
  connection_count : unit -> int;
  stop : unit -> unit;
}

let servers = [ "thttpd"; "phhttpd"; "hybrid" ]

let start_server name ?proc ?(idle_timeout = Time.s 60) ?(sweep_period = Time.s 10) w =
  let proc = Option.value proc ~default:w.proc in
  let ok = function Ok t -> t | Error `Emfile -> Alcotest.fail (name ^ " start failed") in
  match name with
  | "thttpd" ->
      let config = { Thttpd.default_config with Thttpd.idle_timeout; sweep_period } in
      let t = ok (Thttpd.start ~proc ~backend:(devpoll_backend proc) ~config ()) in
      {
        listener = Thttpd.listener t;
        stats = Thttpd.stats t;
        connection_count = (fun () -> Thttpd.connection_count t);
        stop = (fun () -> Thttpd.stop t);
      }
  | "phhttpd" ->
      let config = { Phhttpd.default_config with Phhttpd.idle_timeout; sweep_period } in
      let t = ok (Phhttpd.start ~proc ~config ()) in
      {
        listener = Phhttpd.listener t;
        stats = Phhttpd.stats t;
        connection_count = (fun () -> Phhttpd.connection_count t);
        stop = (fun () -> Phhttpd.stop t);
      }
  | "hybrid" ->
      let config = { Hybrid.default_config with Hybrid.idle_timeout; sweep_period } in
      let t = ok (Hybrid.start ~proc ~config ()) in
      {
        listener = Hybrid.listener t;
        stats = Hybrid.stats t;
        connection_count = (fun () -> Hybrid.connection_count t);
        stop = (fun () -> Hybrid.stop t);
      }
  | _ -> invalid_arg name

(* Every accepted connection is accounted for exactly once: replied,
   dropped by its peer, timed out by the sweep, or still open. *)
let check_conservation srv =
  let s = srv.stats in
  Alcotest.(check int) "accepted = replies + dropped + timed out + open"
    s.Server_stats.accepted
    (s.Server_stats.replies + s.Server_stats.dropped_conns + s.Server_stats.timed_out_conns
   + srv.connection_count ())

let test_idle_sweep name () =
  let w = mk_world () in
  let srv = start_server name ~idle_timeout:(Time.s 2) ~sweep_period:(Time.s 1) w in
  (* A client that sends half a request and goes quiet. *)
  let fin = ref false in
  let handlers =
    {
      Tcp.null_handlers with
      Tcp.on_established = (fun c -> Tcp.client_send c ~bytes_len:10 ~payload:"GET /index");
      on_server_fin = (fun _ -> fin := true);
    }
  in
  ignore (Tcp.connect ~net:w.net ~listener:srv.listener ~handlers ());
  Engine.run ~until:(Time.s 6) w.engine;
  Alcotest.(check bool) "server timed the idle conn out" true !fin;
  Alcotest.(check int) "counted" 1 srv.stats.Server_stats.timed_out_conns;
  Alcotest.(check int) "no reply" 0 srv.stats.Server_stats.replies;
  Alcotest.(check int) "no fd refusals" 0 srv.stats.Server_stats.emfile_drops;
  check_conservation srv;
  srv.stop ()

let test_client_abort name () =
  let w = mk_world () in
  let srv = start_server name w in
  let conn = ref None in
  let handlers =
    { Tcp.null_handlers with Tcp.on_established = (fun c -> conn := Some c) }
  in
  ignore (Tcp.connect ~net:w.net ~listener:srv.listener ~handlers ());
  Engine.run ~until:(Time.ms 10) w.engine;
  (match !conn with Some c -> Tcp.client_abort c | None -> Alcotest.fail "no conn");
  Engine.run ~until:(Time.s 1) w.engine;
  Alcotest.(check int) "dropped" 1 srv.stats.Server_stats.dropped_conns;
  Alcotest.(check int) "conn table drained" 0 (srv.connection_count ());
  Alcotest.(check int) "no fd refusals" 0 srv.stats.Server_stats.emfile_drops;
  check_conservation srv;
  srv.stop ()

(* More simultaneous clients than free descriptors: the accepts past
   the fd limit fail with EMFILE, are counted, and the connections
   that did get a descriptor are still served. *)
let test_fd_limit name () =
  let w = mk_world () in
  let proc = Process.create ~host:w.host ~fd_limit:6 ~name:"small" () in
  let srv = start_server name ~proc w in
  let clients = 10 in
  let getters = List.init clients (fun _ -> quick_conn w srv.listener) in
  Engine.run ~until:(Time.s 2) w.engine;
  let s = srv.stats in
  Alcotest.(check bool) "accepts refused for lack of fds" true (s.Server_stats.emfile_drops > 0);
  Alcotest.(check int) "every client accepted or refused" clients
    (s.Server_stats.accepted + s.Server_stats.emfile_drops);
  Alcotest.(check int) "every accepted client served" s.Server_stats.accepted
    (List.length (List.filter (fun got -> got () = expected_bytes) getters));
  Alcotest.(check int) "replies" s.Server_stats.accepted s.Server_stats.replies;
  check_conservation srv;
  srv.stop ()

(* --- phhttpd --- *)

let test_phhttpd_serves () =
  let w = mk_world () in
  let t =
    match Phhttpd.start ~proc:w.proc () with
    | Ok t -> t
    | Error `Emfile -> Alcotest.fail "phhttpd start failed"
  in
  let got = quick_conn w (Phhttpd.listener t) in
  Engine.run ~until:(Time.s 1) w.engine;
  Alcotest.(check int) "full response" expected_bytes (got ());
  Alcotest.(check bool) "still in signal mode" true (Phhttpd.mode t = Phhttpd.Signals);
  (* The close of the served connection leaves one stale signal, which
     the server must absorb without confusion. *)
  Engine.run ~until:(Time.s 2) w.engine;
  Alcotest.(check int) "one reply" 1 (Phhttpd.stats t).Server_stats.replies;
  Phhttpd.stop t

let test_phhttpd_overflow_switches_to_polling () =
  let w = mk_world () in
  (* Tiny RT queue so a burst of connections overflows it. *)
  let proc = Process.create ~host:w.host ~rt_queue_limit:8 ~name:"ph" () in
  let t =
    match Phhttpd.start ~proc () with
    | Ok t -> t
    | Error `Emfile -> Alcotest.fail "start failed"
  in
  let getters = List.init 40 (fun _ -> quick_conn w (Phhttpd.listener t)) in
  Engine.run ~until:(Time.s 3) w.engine;
  Alcotest.(check bool) "switched to polling" true (Phhttpd.mode t = Phhttpd.Polling);
  Alcotest.(check bool) "overflow recovery counted" true
    ((Phhttpd.stats t).Server_stats.overflow_recoveries >= 1);
  (* Recovery must not lose connections: everyone is eventually served. *)
  List.iteri
    (fun i got ->
      Alcotest.(check int) (Printf.sprintf "conn %d served" i) expected_bytes (got ()))
    getters;
  (* And it never returns to signal mode (Brown never implemented it). *)
  let g = quick_conn w (Phhttpd.listener t) in
  Engine.run ~until:(Time.s 4) w.engine;
  Alcotest.(check int) "post-recovery service works" expected_bytes (g ());
  Alcotest.(check bool) "still polling" true (Phhttpd.mode t = Phhttpd.Polling);
  (* The descriptors physically moved: the signal worker's table is
     empty (it kept nothing) and the sibling owns the listener plus any
     remaining connections. *)
  Alcotest.(check bool) "handoff finished" false (Phhttpd.is_handing_off t);
  Alcotest.(check int) "signal worker's table empty" 0 (Process.open_fd_count proc);
  Alcotest.(check bool) "sibling owns the descriptors" true
    (Process.open_fd_count (Phhttpd.sibling t) >= 1);
  Phhttpd.stop t

let test_phhttpd_counts_stale_events () =
  let w = mk_world () in
  let t =
    match Phhttpd.start ~proc:w.proc () with
    | Ok t -> t
    | Error `Emfile -> Alcotest.fail "start failed"
  in
  let (_ : unit -> int) = quick_conn w (Phhttpd.listener t) in
  Engine.run ~until:(Time.s 2) w.engine;
  (* The POLLNVAL edge queued at close names a dead descriptor. *)
  Alcotest.(check bool) "stale events seen" true
    ((Phhttpd.stats t).Server_stats.stale_events >= 1);
  Phhttpd.stop t

(* --- hybrid --- *)

let test_hybrid_serves_in_signal_mode () =
  let w = mk_world () in
  let t =
    match Hybrid.start ~proc:w.proc () with
    | Ok t -> t
    | Error `Emfile -> Alcotest.fail "hybrid start failed"
  in
  let got = quick_conn w (Hybrid.listener t) in
  Engine.run ~until:(Time.s 1) w.engine;
  Alcotest.(check int) "served" expected_bytes (got ());
  Alcotest.(check bool) "signal mode at light load" true (Hybrid.mode t = Hybrid.Signals);
  Hybrid.stop t

let test_hybrid_overflow_recovers_and_returns () =
  (* Under a genuine overload (real cost model, offered rate beyond the
     host's capacity) the hybrid must shift to polling and come back
     once the storm passes. *)
  let w = mk_world ~costs:Cost_model.default () in
  let t =
    match Hybrid.start ~proc:w.proc () with
    | Ok t -> t
    | Error `Emfile -> Alcotest.fail "start failed"
  in
  let workload =
    {
      Sio_loadgen.Workload.default with
      Sio_loadgen.Workload.request_rate = 1400;
      total_connections = 4200;
      inactive_connections = 0;
    }
  in
  let _client =
    Sio_loadgen.Httperf.start ~engine:w.engine ~net:w.net ~listener:(Hybrid.listener t)
      ~workload ()
  in
  Engine.run ~until:(Time.s 12) w.engine;
  Alcotest.(check bool) "switched at least twice (to polling and back)" true
    ((Hybrid.stats t).Server_stats.mode_switches >= 2);
  Alcotest.(check bool) "returned to signal mode when load subsided" true
    (Hybrid.mode t = Hybrid.Signals);
  Alcotest.(check bool) "served the bulk of the storm" true
    ((Hybrid.stats t).Server_stats.replies > 3000);
  Hybrid.stop t

(* At batch 1 every delivery fills the batch, so "a run of full
   batches" carries no load signal: only the overflow SIGIO may move a
   plain-sigwaitinfo hybrid to polling. *)
let test_hybrid_batch1_stays_in_signal_mode () =
  let w = mk_world ~costs:Cost_model.default () in
  let config = { Hybrid.default_config with Hybrid.sigtimedwait4_batch = 1 } in
  let t =
    match Hybrid.start ~proc:w.proc ~config () with
    | Ok t -> t
    | Error `Emfile -> Alcotest.fail "start failed"
  in
  let workload =
    {
      Sio_loadgen.Workload.default with
      Sio_loadgen.Workload.request_rate = 200;
      total_connections = 400;
      inactive_connections = 0;
    }
  in
  let _client =
    Sio_loadgen.Httperf.start ~engine:w.engine ~net:w.net ~listener:(Hybrid.listener t)
      ~workload ()
  in
  Engine.run ~until:(Time.s 3) w.engine;
  Alcotest.(check int) "no mode switches" 0 (Hybrid.stats t).Server_stats.mode_switches;
  Alcotest.(check bool) "served the load" true ((Hybrid.stats t).Server_stats.replies >= 390);
  Hybrid.stop t

let suite =
  [
    Alcotest.test_case "thttpd+poll serves a request" `Quick
      (test_thttpd_serves poll_backend);
    Alcotest.test_case "thttpd+devpoll serves a request" `Quick
      (test_thttpd_serves devpoll_backend);
    Alcotest.test_case "thttpd+select serves a request" `Quick
      (test_thttpd_serves select_backend);
    Alcotest.test_case "thttpd+epoll serves a request" `Quick
      (test_thttpd_serves epoll_backend);
    Alcotest.test_case "thttpd handles chunked requests" `Quick
      test_thttpd_chunked_requests;
    Alcotest.test_case "thttpd serves 50 concurrent connections" `Quick
      test_thttpd_many_conns;
    Alcotest.test_case "phhttpd serves via RT signals" `Quick test_phhttpd_serves;
    Alcotest.test_case "phhttpd overflow switches to polling forever" `Quick
      test_phhttpd_overflow_switches_to_polling;
    Alcotest.test_case "phhttpd tolerates stale signals" `Quick
      test_phhttpd_counts_stale_events;
    Alcotest.test_case "hybrid serves in signal mode" `Quick
      test_hybrid_serves_in_signal_mode;
    Alcotest.test_case "hybrid recovers from overflow and switches back" `Quick
      test_hybrid_overflow_recovers_and_returns;
    Alcotest.test_case "hybrid at batch 1 stays in signal mode under light load" `Quick
      test_hybrid_batch1_stays_in_signal_mode;
  ]
  @ List.concat_map
      (fun name ->
        [
          Alcotest.test_case (name ^ " idle sweep times out silent clients") `Quick
            (test_idle_sweep name);
          Alcotest.test_case (name ^ " client abort") `Quick (test_client_abort name);
          Alcotest.test_case (name ^ " refuses accepts past the fd limit") `Quick
            (test_fd_limit name);
        ])
      servers
