open Sio_sim
open Sio_kernel

type env = { engine : Engine.t; host : Host.t; q : Rt_signal.queue }

let mk ?limit () =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_host engine in
  let q =
    match limit with
    | Some l -> Rt_signal.create_queue ~host ~limit:l ()
    | None -> Rt_signal.create_queue ~host ()
  in
  { engine; host; q }

let sock env = Socket.create_established ~host:env.host

let test_signal_on_io_completion () =
  let env = mk () in
  let s = sock env in
  Rt_signal.set_signal env.q ~socket:s ~fd:7 ~signo:Rt_signal.sigrtmin;
  ignore (Socket.deliver s ~bytes_len:10 ~payload:"");
  Alcotest.(check int) "queued" 1 (Rt_signal.pending env.q);
  let got = ref None in
  Rt_signal.sigwaitinfo env.q ~k:(fun d -> got := Some d);
  Engine.run env.engine;
  match !got with
  | Some (Rt_signal.Signal { signo; fd; band }) ->
      Alcotest.(check int) "signo" Rt_signal.sigrtmin signo;
      Alcotest.(check int) "fd payload" 7 fd;
      Alcotest.(check bool) "band has POLLIN" true (Pollmask.mem Pollmask.pollin band)
  | Some Rt_signal.Overflow -> Alcotest.fail "unexpected overflow"
  | None -> Alcotest.fail "no delivery"

let test_sigwaitinfo_blocks () =
  let env = mk () in
  let s = sock env in
  Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:Rt_signal.sigrtmin;
  let got_at = ref None in
  Rt_signal.sigwaitinfo env.q ~k:(fun _ -> got_at := Some (Engine.now env.engine));
  ignore
    (Engine.at env.engine (Time.ms 40) (fun () ->
         ignore (Socket.deliver s ~bytes_len:1 ~payload:"")));
  Engine.run env.engine;
  Alcotest.(check (option int)) "woken at delivery" (Some (Time.ms 40)) !got_at

let test_fifo_within_signo () =
  let env = mk () in
  let s1 = sock env and s2 = sock env in
  Rt_signal.set_signal env.q ~socket:s1 ~fd:1 ~signo:Rt_signal.sigrtmin;
  Rt_signal.set_signal env.q ~socket:s2 ~fd:2 ~signo:Rt_signal.sigrtmin;
  ignore (Socket.deliver s1 ~bytes_len:1 ~payload:"");
  ignore (Socket.deliver s2 ~bytes_len:1 ~payload:"");
  let fds = ref [] in
  Rt_signal.sigtimedwait4 env.q ~max:10 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun ds -> fds := List.map fst ds));
  Engine.run env.engine;
  Alcotest.(check (list int)) "FIFO" [ 1; 2 ] !fds

let test_lower_signo_delivered_first () =
  (* "Signals dequeue in order of their assigned signal number, thus
     activity on lower-numbered connections can cause longer delays
     for higher-numbered connections." *)
  let env = mk () in
  let s1 = sock env and s2 = sock env in
  Rt_signal.set_signal env.q ~socket:s1 ~fd:1 ~signo:(Rt_signal.sigrtmin + 5);
  Rt_signal.set_signal env.q ~socket:s2 ~fd:2 ~signo:Rt_signal.sigrtmin;
  ignore (Socket.deliver s1 ~bytes_len:1 ~payload:"");
  ignore (Socket.deliver s2 ~bytes_len:1 ~payload:"");
  let fds = ref [] in
  Rt_signal.sigtimedwait4 env.q ~max:10 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun ds -> fds := List.map fst ds));
  Engine.run env.engine;
  Alcotest.(check (list int)) "lower signo first" [ 2; 1 ] !fds

let test_overflow_raises_sigio_once () =
  let env = mk ~limit:3 () in
  let s = sock env in
  Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:Rt_signal.sigrtmin;
  (* Each deliver/drain cycle posts a fresh POLLIN edge. *)
  for _ = 1 to 5 do
    ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
    ignore (Socket.read_all s)
  done;
  Alcotest.(check int) "queue capped" 3 (Rt_signal.pending env.q);
  Alcotest.(check bool) "SIGIO pending" true (Rt_signal.sigio_pending env.q);
  Alcotest.(check int) "overflow counted once" 1 env.host.Host.counters.Host.rt_overflows;
  Alcotest.(check int) "drops counted" 2 env.host.Host.counters.Host.rt_dropped

let test_sigio_jumps_queue () =
  let env = mk ~limit:2 () in
  let s = sock env in
  Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:Rt_signal.sigrtmin;
  for _ = 1 to 3 do
    ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
    ignore (Socket.read_all s)
  done;
  let first = ref None in
  Rt_signal.sigwaitinfo env.q ~k:(fun d -> first := Some d);
  Engine.run env.engine;
  (match !first with
  | Some Rt_signal.Overflow -> ()
  | Some (Rt_signal.Signal _) -> Alcotest.fail "SIGIO should be delivered first"
  | None -> Alcotest.fail "nothing delivered");
  Alcotest.(check bool) "SIGIO consumed" false (Rt_signal.sigio_pending env.q);
  Alcotest.(check int) "RT signals still queued" 2 (Rt_signal.pending env.q)

let test_stale_events_after_close () =
  (* Events queued before close remain on the queue and can name a
     since-reused fd — the hazard the paper documents. *)
  let env = mk () in
  let s = sock env in
  Rt_signal.set_signal env.q ~socket:s ~fd:9 ~signo:Rt_signal.sigrtmin;
  ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
  Socket.close s;
  (* close posts POLLNVAL, also queued; both survive the close. *)
  Alcotest.(check bool) "signals survive close" true (Rt_signal.pending env.q >= 1);
  let got = ref [] in
  Rt_signal.sigtimedwait4 env.q ~max:10 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun ds -> got := ds));
  Engine.run env.engine;
  match !got with
  | (fd, _) :: _ -> Alcotest.(check int) "stale fd" 9 fd
  | _ -> Alcotest.fail "expected stale signal"

let test_flush_discards () =
  let env = mk ~limit:2 () in
  let s = sock env in
  Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:Rt_signal.sigrtmin;
  for _ = 1 to 4 do
    ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
    ignore (Socket.read_all s)
  done;
  let dropped = Rt_signal.flush env.q in
  Alcotest.(check int) "flushed both" 2 dropped;
  Alcotest.(check int) "empty" 0 (Rt_signal.pending env.q);
  Alcotest.(check bool) "SIGIO cleared" false (Rt_signal.sigio_pending env.q)

let test_clear_signal_stops_queueing () =
  let env = mk () in
  let s = sock env in
  Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:Rt_signal.sigrtmin;
  Rt_signal.clear_signal env.q ~socket:s ~fd:1;
  ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
  Alcotest.(check int) "nothing queued" 0 (Rt_signal.pending env.q)

let test_rebind_replaces () =
  let env = mk () in
  let s = sock env in
  Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:Rt_signal.sigrtmin;
  Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:(Rt_signal.sigrtmin + 1);
  ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
  Alcotest.(check int) "single binding" 1 (Rt_signal.pending env.q);
  let got = ref None in
  Rt_signal.sigwaitinfo env.q ~k:(fun d -> got := Some d);
  Engine.run env.engine;
  match !got with
  | Some (Rt_signal.Signal { signo; _ }) ->
      Alcotest.(check int) "new signo used" (Rt_signal.sigrtmin + 1) signo
  | Some Rt_signal.Overflow | None -> Alcotest.fail "expected signal"

let test_signo_below_rtmin_rejected () =
  let env = mk () in
  let s = sock env in
  let raised =
    try
      Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:29;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rejected" true raised

let test_sigtimedwait4_batches () =
  let env = mk () in
  let sockets = List.init 6 (fun i -> (i, sock env)) in
  List.iter
    (fun (fd, s) ->
      Rt_signal.set_signal env.q ~socket:s ~fd ~signo:Rt_signal.sigrtmin;
      ignore (Socket.deliver s ~bytes_len:1 ~payload:""))
    sockets;
  let batch = ref [] in
  Rt_signal.sigtimedwait4 env.q ~max:4 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun ds -> batch := ds));
  Engine.run env.engine;
  Alcotest.(check int) "batch of 4" 4 (List.length !batch);
  Alcotest.(check int) "two remain" 2 (Rt_signal.pending env.q)

let test_sigtimedwait4_timeout () =
  let env = mk () in
  let got_at = ref None in
  Rt_signal.sigtimedwait4 env.q ~max:4 ~timeout:(Some (Time.ms 15)) ~k:(fun ds ->
      got_at := Some (Engine.now env.engine, Ready_batch.length ds));
  Engine.run env.engine;
  Alcotest.(check (option (pair int int))) "empty at timeout" (Some (Time.ms 15, 0)) !got_at

let prop_queue_never_exceeds_limit =
  QCheck.Test.make ~name:"queue length never exceeds its limit" ~count:150
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(0 -- 100) unit))
    (fun (limit, events) ->
      let env = mk ~limit () in
      let s = sock env in
      Rt_signal.set_signal env.q ~socket:s ~fd:1 ~signo:Rt_signal.sigrtmin;
      List.iter
        (fun () ->
          ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
          ignore (Socket.read_all s))
        events;
      Rt_signal.pending env.q <= limit)

let suite =
  [
    Alcotest.test_case "signal on I/O completion" `Quick test_signal_on_io_completion;
    Alcotest.test_case "sigwaitinfo blocks" `Quick test_sigwaitinfo_blocks;
    Alcotest.test_case "FIFO within a signo" `Quick test_fifo_within_signo;
    Alcotest.test_case "lower signo delivered first" `Quick test_lower_signo_delivered_first;
    Alcotest.test_case "overflow raises SIGIO once" `Quick test_overflow_raises_sigio_once;
    Alcotest.test_case "SIGIO jumps the queue" `Quick test_sigio_jumps_queue;
    Alcotest.test_case "stale events survive close" `Quick test_stale_events_after_close;
    Alcotest.test_case "flush discards" `Quick test_flush_discards;
    Alcotest.test_case "clear_signal stops queueing" `Quick test_clear_signal_stops_queueing;
    Alcotest.test_case "rebinding replaces" `Quick test_rebind_replaces;
    Alcotest.test_case "signo below SIGRTMIN rejected" `Quick test_signo_below_rtmin_rejected;
    Alcotest.test_case "sigtimedwait4 batches" `Quick test_sigtimedwait4_batches;
    Alcotest.test_case "sigtimedwait4 timeout" `Quick test_sigtimedwait4_timeout;
    QCheck_alcotest.to_alcotest prop_queue_never_exceeds_limit;
  ]
