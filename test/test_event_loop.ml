(* Tests of the public Scalanio event loop across every notification
   mechanism. *)

open Sio_sim
open Sio_kernel

let mk_world () =
  let engine = Engine.create ~seed:13 () in
  let host = Host.create ~engine ~costs:Cost_model.zero () in
  let proc = Process.create ~host ~name:"app" () in
  (engine, host, proc)

let install_sock proc host =
  let s = Socket.create_established ~host in
  match Process.install_socket proc s with
  | Ok fd -> (fd, s)
  | Error `Emfile -> Alcotest.fail "install failed"

let devpoll_kind = Sio_httpd.Backend.Devpoll { use_mmap = true; max_events = 64 }

let backends =
  Sio_httpd.Backend.
    [
      ("select", Select);
      ("poll", Poll);
      ("devpoll", devpoll_kind);
      ("devpoll-nommap", Devpoll { use_mmap = false; max_events = 64 });
      ("epoll", Epoll { max_events = 64 });
      ("rtsig", Rt_signals { signo = Rt_signal.sigrtmin + 1; batch = 1 });
      ("rtsig-batched", Rt_signals { signo = Rt_signal.sigrtmin + 1; batch = 8 });
    ]

let test_dispatch_on_all_backends () =
  List.iter
    (fun (name, backend) ->
      let engine, host, proc = mk_world () in
      let fd, sock = install_sock proc host in
      let loop =
        match Scalanio.Event_loop.create ~proc ~backend with
        | Ok l -> l
        | Error `Emfile -> Alcotest.fail "loop create failed"
      in
      let fired = ref 0 in
      Scalanio.Event_loop.watch loop ~fd ~events:Pollmask.pollin (fun mask ->
          if Pollmask.intersects mask Pollmask.readable then begin
            incr fired;
            ignore (Socket.read_all sock)
          end);
      Scalanio.Event_loop.run loop;
      ignore
        (Engine.after engine (Time.ms 5) (fun () ->
             ignore (Socket.deliver sock ~bytes_len:10 ~payload:"x")));
      Engine.run ~until:(Time.ms 100) engine;
      Alcotest.(check string) "backend name" name (Scalanio.Event_loop.backend_name loop);
      Alcotest.(check int) (name ^ ": callback fired once") 1 !fired;
      Scalanio.Event_loop.stop loop)
    backends

let test_unwatch_stops_dispatch () =
  let engine, host, proc = mk_world () in
  let fd, sock = install_sock proc host in
  let loop =
    match Scalanio.Event_loop.create ~proc ~backend:devpoll_kind with
    | Ok l -> l
    | Error `Emfile -> Alcotest.fail "create failed"
  in
  let fired = ref 0 in
  Scalanio.Event_loop.watch loop ~fd ~events:Pollmask.pollin (fun _ -> incr fired);
  Scalanio.Event_loop.unwatch loop fd;
  Alcotest.(check int) "watched_count" 0 (Scalanio.Event_loop.watched_count loop);
  Scalanio.Event_loop.run loop;
  ignore (Socket.deliver sock ~bytes_len:4 ~payload:"");
  Engine.run ~until:(Time.ms 50) engine;
  Alcotest.(check int) "no dispatch" 0 !fired;
  Scalanio.Event_loop.stop loop

let test_timers () =
  let engine, _, proc = mk_world () in
  let loop =
    match Scalanio.Event_loop.create ~proc ~backend:Sio_httpd.Backend.Poll with
    | Ok l -> l
    | Error `Emfile -> Alcotest.fail "create failed"
  in
  let once = ref 0 and ticks = ref 0 in
  ignore (Scalanio.Event_loop.add_timer loop ~after:(Time.ms 10) (fun () -> incr once));
  Scalanio.Event_loop.add_periodic loop ~every:(Time.ms 20) (fun () -> incr ticks);
  Scalanio.Event_loop.run loop;
  Engine.run ~until:(Time.ms 105) engine;
  Alcotest.(check int) "one-shot" 1 !once;
  Alcotest.(check int) "periodic ~5 ticks" 5 !ticks;
  Scalanio.Event_loop.stop loop;
  Engine.run ~until:(Time.ms 200) engine;
  Alcotest.(check int) "periodic stops with loop" 5 !ticks

let test_rtsig_overflow_recovery () =
  let engine, host, proc =
    let engine = Engine.create ~seed:13 () in
    let host = Host.create ~engine ~costs:Cost_model.zero () in
    let proc = Process.create ~host ~rt_queue_limit:3 ~name:"app" () in
    (engine, host, proc)
  in
  let socks = List.init 6 (fun _ -> install_sock proc host) in
  let loop =
    match
      Scalanio.Event_loop.create ~proc
        ~backend:(Sio_httpd.Backend.Rt_signals { signo = Rt_signal.sigrtmin + 2; batch = 1 })
    with
    | Ok l -> l
    | Error `Emfile -> Alcotest.fail "create failed"
  in
  let fired = Hashtbl.create 8 in
  List.iter
    (fun (fd, sock) ->
      Scalanio.Event_loop.watch loop ~fd ~events:Pollmask.pollin (fun _ ->
          Hashtbl.replace fired fd ();
          ignore (Socket.read_all sock)))
    socks;
  Scalanio.Event_loop.run loop;
  (* Burst: 6 edges into a queue of 3 -> overflow -> recovery poll must
     still find and dispatch every ready descriptor. *)
  ignore
    (Engine.after engine (Time.ms 1) (fun () ->
         List.iter (fun (_, s) -> ignore (Socket.deliver s ~bytes_len:8 ~payload:"")) socks));
  Engine.run ~until:(Time.ms 200) engine;
  Alcotest.(check int) "every socket dispatched" 6 (Hashtbl.length fired);
  Alcotest.(check bool) "recovery happened" true
    (Scalanio.Event_loop.overflow_recoveries loop >= 1);
  Scalanio.Event_loop.stop loop

(* Regression for the hashtbl-order lint rule: the recovery poll used
   to dispatch in Hashtbl.fold order, which is a function of the watch
   table's insertion history. Watch the same fd set in several
   insertion orders; the dispatch sequence must be identical (and the
   recovery portion ascending) every time. *)
let test_recovery_dispatch_order_invariant () =
  let n = 48 in
  let dispatch_order perm =
    let engine = Engine.create ~seed:13 () in
    let host = Host.create ~engine ~costs:Cost_model.zero () in
    let proc = Process.create ~host ~rt_queue_limit:2 ~name:"app" () in
    let socks = Array.init n (fun _ -> install_sock proc host) in
    let loop =
      match
        Scalanio.Event_loop.create ~proc
          ~backend:(Sio_httpd.Backend.Rt_signals { signo = Rt_signal.sigrtmin + 2; batch = 8 })
      with
      | Ok l -> l
      | Error `Emfile -> Alcotest.fail "create failed"
    in
    let order = ref [] in
    List.iter
      (fun i ->
        let fd, sock = socks.(i) in
        Scalanio.Event_loop.watch loop ~fd ~events:Pollmask.pollin (fun _ ->
            order := fd :: !order;
            ignore (Socket.read_all sock)))
      perm;
    Scalanio.Event_loop.run loop;
    ignore
      (Engine.after engine (Time.ms 1) (fun () ->
           Array.iter (fun (_, s) -> ignore (Socket.deliver s ~bytes_len:8 ~payload:"")) socks));
    Engine.run ~until:(Time.ms 200) engine;
    Alcotest.(check bool) "overflow recovery ran" true
      (Scalanio.Event_loop.overflow_recoveries loop >= 1);
    Scalanio.Event_loop.stop loop;
    List.rev !order
  in
  let identity = List.init n Fun.id in
  let shuffled =
    let rng = Rng.create ~seed:7 in
    let a = Array.of_list identity in
    Rng.shuffle rng a;
    Array.to_list a
  in
  let o1 = dispatch_order identity in
  let o2 = dispatch_order (List.rev identity) in
  let o3 = dispatch_order shuffled in
  Alcotest.(check bool) "every fd dispatched" true
    (List.length (List.sort_uniq compare o1) = n);
  Alcotest.(check (list int)) "reverse insertion: same dispatch order" o1 o2;
  Alcotest.(check (list int)) "shuffled insertion: same dispatch order" o1 o3

(* The RT-signal parameters are checked where the backend is built. *)
let test_create_validation () =
  let _, _, proc = mk_world () in
  let rejected signo batch =
    match Sio_httpd.Backend.create (Sio_httpd.Backend.Rt_signals { signo; batch }) proc with
    | Ok _ | Error `Emfile -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad signo rejected" true (rejected 5 1);
  Alcotest.(check bool) "zero batch rejected" true (rejected (Rt_signal.sigrtmin + 1) 0);
  Alcotest.(check bool) "valid signo and batch accepted" false
    (rejected (Rt_signal.sigrtmin + 1) 8)

let suite =
  [
    Alcotest.test_case "dispatch on all backends" `Quick test_dispatch_on_all_backends;
    Alcotest.test_case "unwatch stops dispatch" `Quick test_unwatch_stops_dispatch;
    Alcotest.test_case "timers" `Quick test_timers;
    Alcotest.test_case "RT overflow recovery loses nothing" `Quick
      test_rtsig_overflow_recovery;
    Alcotest.test_case "recovery dispatch order ignores insertion order" `Quick
      test_recovery_dispatch_order_invariant;
    Alcotest.test_case "create validation" `Quick test_create_validation;
  ]
