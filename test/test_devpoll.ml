open Sio_sim
open Sio_kernel

type env = {
  engine : Engine.t;
  host : Host.t;
  sockets : (int, Socket.t) Hashtbl.t;
  dev : Devpoll.t;
}

let mk ?costs () =
  let engine = Helpers.mk_engine () in
  let host =
    match costs with
    | Some c -> Helpers.mk_host ~costs:c engine
    | None -> Helpers.mk_host engine
  in
  let sockets = Hashtbl.create 8 in
  let dev = Devpoll.create ~host ~lookup:(Hashtbl.find_opt sockets) in
  { engine; host; sockets; dev }

let add env fd =
  let s = Socket.create_established ~host:env.host in
  Hashtbl.replace env.sockets fd s;
  s

let results_testable = Alcotest.(list (pair int Helpers.mask))

let test_write_builds_interest_set () =
  let env = mk () in
  ignore (add env 1);
  ignore (add env 2);
  Devpoll.write env.dev [ (1, Pollmask.pollin); (2, Pollmask.pollin) ];
  Alcotest.(check int) "two interests" 2 (Devpoll.interest_count env.dev);
  Devpoll.write env.dev [ (1, Pollmask.pollremove) ];
  Alcotest.(check int) "removed" 1 (Devpoll.interest_count env.dev)

let test_poll_returns_ready () =
  let env = mk () in
  let s = add env 4 in
  Devpoll.write env.dev [ (4, Pollmask.pollin) ];
  ignore (Socket.deliver s ~bytes_len:10 ~payload:"");
  let got = ref None in
  Devpoll.dp_poll env.dev ~max_results:16 ~timeout:None
    ~k:(Helpers.pairs (fun rs -> got := Some rs));
  Engine.run env.engine;
  match !got with
  | Some rs -> Alcotest.check results_testable "ready" [ (4, Pollmask.pollin) ] rs
  | None -> Alcotest.fail "dp_poll never returned"

let test_blocks_until_hint () =
  let env = mk () in
  let s = add env 1 in
  Devpoll.write env.dev [ (1, Pollmask.pollin) ];
  let got_at = ref None in
  Devpoll.dp_poll env.dev ~max_results:16 ~timeout:None ~k:(Helpers.pairs (fun rs ->
      got_at := Some (Engine.now env.engine, rs)));
  ignore
    (Engine.at env.engine (Time.ms 25) (fun () ->
         ignore (Socket.deliver s ~bytes_len:5 ~payload:"")));
  Engine.run env.engine;
  match !got_at with
  | Some (t, rs) ->
      Alcotest.(check int) "woke at delivery" (Time.ms 25) t;
      Alcotest.check results_testable "event" [ (1, Pollmask.pollin) ] rs
  | None -> Alcotest.fail "dp_poll never woke"

let test_max_results_caps () =
  let env = mk () in
  for fd = 0 to 9 do
    let s = add env fd in
    ignore (Socket.deliver s ~bytes_len:1 ~payload:"")
  done;
  Devpoll.write env.dev (List.init 10 (fun fd -> (fd, Pollmask.pollin)));
  let got = ref [] in
  Devpoll.dp_poll env.dev ~max_results:3 ~timeout:None ~k:(Helpers.pairs (fun rs -> got := rs));
  Engine.run env.engine;
  Alcotest.(check int) "capped at 3" 3 (List.length !got)

let test_timeout () =
  let env = mk () in
  ignore (add env 1);
  Devpoll.write env.dev [ (1, Pollmask.pollin) ];
  let got_at = ref None in
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some (Time.ms 10)) ~k:(Helpers.pairs (fun rs ->
      got_at := Some (Engine.now env.engine, rs)));
  Engine.run env.engine;
  match !got_at with
  | Some (t, []) -> Alcotest.(check int) "timed out" (Time.ms 10) t
  | Some (_, _ :: _) -> Alcotest.fail "unexpected events"
  | None -> Alcotest.fail "never returned"

let test_missing_fd_reports_nval () =
  let env = mk () in
  ignore (add env 1);
  Devpoll.write env.dev [ (1, Pollmask.pollin) ];
  Hashtbl.remove env.sockets 1;
  let got = ref None in
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero) ~k:(Helpers.pairs (fun rs ->
      got := Some rs));
  Engine.run env.engine;
  Alcotest.(check bool) "NVAL" true (!got = Some [ (1, Pollmask.pollnval) ])

let test_hints_avoid_driver_callbacks () =
  (* The paper's measurement: with many idle connections, hints cut
     driver poll operations from O(interests) to O(changes). *)
  let env = mk () in
  let n = 100 in
  for fd = 0 to n - 1 do
    ignore (add env fd)
  done;
  Devpoll.write env.dev (List.init n (fun fd -> (fd, Pollmask.pollin)));
  (* First scan: no caches, all drivers consulted. *)
  Devpoll.dp_poll env.dev ~max_results:16 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
  Engine.run env.engine;
  let first = env.host.Host.counters.Host.driver_polls in
  Alcotest.(check int) "first scan asks every driver" n first;
  (* Second scan: everything cached not-ready, no hints: zero driver calls. *)
  Devpoll.dp_poll env.dev ~max_results:16 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
  Engine.run env.engine;
  Alcotest.(check int) "second scan fully hinted" first
    env.host.Host.counters.Host.driver_polls;
  Alcotest.(check int) "skips counted" n env.host.Host.counters.Host.hint_skips

let test_hint_triggers_revalidation () =
  let env = mk () in
  let s = add env 7 in
  ignore (add env 8);
  Devpoll.write env.dev [ (7, Pollmask.pollin); (8, Pollmask.pollin) ];
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
  Engine.run env.engine;
  let base = env.host.Host.counters.Host.driver_polls in
  ignore (Socket.deliver s ~bytes_len:4 ~payload:"");
  let got = ref [] in
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun rs -> got := rs));
  Engine.run env.engine;
  Alcotest.check results_testable "hinted fd found ready" [ (7, Pollmask.pollin) ]
    !got;
  (* Only fd 7 had a hint: exactly one driver callback. *)
  Alcotest.(check int) "one driver call" (base + 1)
    env.host.Host.counters.Host.driver_polls

let test_ready_cache_always_revalidated () =
  let env = mk () in
  let s = add env 3 in
  Devpoll.write env.dev [ (3, Pollmask.pollin) ];
  ignore (Socket.deliver s ~bytes_len:4 ~payload:"");
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
  Engine.run env.engine;
  let base = env.host.Host.counters.Host.driver_polls in
  (* Drain the socket without posting any hint-visible edge; a stale
     "ready" cache must not be trusted. *)
  let _ = Socket.read_all s in
  let got = ref [ (-1, Pollmask.empty) ] in
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun rs -> got := rs));
  Engine.run env.engine;
  Alcotest.(check int) "no longer ready" 0 (List.length !got);
  Alcotest.(check int) "revalidation consulted driver" (base + 1)
    env.host.Host.counters.Host.driver_polls

let test_unhinted_driver_always_polled () =
  let env = mk () in
  let s = add env 1 in
  Socket.set_hints_supported s false;
  Devpoll.write env.dev [ (1, Pollmask.pollin) ];
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
  Engine.run env.engine;
  Alcotest.(check int) "driver consulted every scan" 2
    env.host.Host.counters.Host.driver_polls;
  Alcotest.(check int) "no hint skips" 0 env.host.Host.counters.Host.hint_skips

let test_fd_reuse_rebinds_backmap () =
  let env = mk () in
  let s1 = add env 5 in
  Devpoll.write env.dev [ (5, Pollmask.pollin) ];
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
  Engine.run env.engine;
  (* fd 5 is closed and reused by a different socket. *)
  Socket.close s1;
  let s2 = add env 5 in
  ignore (Socket.deliver s2 ~bytes_len:9 ~payload:"");
  let got = ref [] in
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun rs -> got := rs));
  Engine.run env.engine;
  Alcotest.check results_testable "interest applies to new socket"
    [ (5, Pollmask.pollin) ] !got;
  (* And hints flow from the new socket now. *)
  Alcotest.(check int) "old socket observer dropped" 0 (Socket.observer_count s1);
  Alcotest.(check bool) "new socket observed" true (Socket.observer_count s2 > 0)

let test_mmap_removes_copyout_cost () =
  let scan_cost ~mmap =
    let env = mk ~costs:Cost_model.default () in
    let n = 50 in
    for fd = 0 to n - 1 do
      let s = add env fd in
      ignore (Socket.deliver s ~bytes_len:1 ~payload:"")
    done;
    Devpoll.write env.dev (List.init n (fun fd -> (fd, Pollmask.pollin)));
    if mmap then Devpoll.alloc_result_map env.dev ~slots:n;
    let before = Cpu.total_busy env.host.Host.cpu in
    Devpoll.dp_poll env.dev ~max_results:n ~timeout:(Some Time.zero) ~k:(fun _ -> ());
    Engine.run env.engine;
    Time.sub (Cpu.total_busy env.host.Host.cpu) before
  in
  let plain = scan_cost ~mmap:false and mapped = scan_cost ~mmap:true in
  Alcotest.(check bool) "mmap poll cheaper" true (mapped < plain)

let test_result_map_slots_cap_results () =
  let env = mk () in
  for fd = 0 to 9 do
    let s = add env fd in
    ignore (Socket.deliver s ~bytes_len:1 ~payload:"")
  done;
  Devpoll.write env.dev (List.init 10 (fun fd -> (fd, Pollmask.pollin)));
  Devpoll.alloc_result_map env.dev ~slots:4;
  let got = ref [] in
  Devpoll.dp_poll env.dev ~max_results:100 ~timeout:None ~k:(Helpers.pairs (fun rs -> got := rs));
  Engine.run env.engine;
  Alcotest.(check int) "capped by mapping size" 4 (List.length !got)

let test_alloc_map_twice_rejected () =
  let env = mk () in
  Devpoll.alloc_result_map env.dev ~slots:8;
  let raised =
    try
      Devpoll.alloc_result_map env.dev ~slots:8;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "second mapping rejected" true raised;
  Devpoll.release_result_map env.dev;
  Alcotest.(check bool) "released" false (Devpoll.has_result_map env.dev)

let test_close_releases_subscriptions () =
  let env = mk () in
  let s = add env 1 in
  Devpoll.write env.dev [ (1, Pollmask.pollin) ];
  Alcotest.(check bool) "subscribed" true (Socket.observer_count s > 0);
  Devpoll.close env.dev;
  Alcotest.(check int) "unsubscribed" 0 (Socket.observer_count s);
  Alcotest.(check bool) "closed" true (Devpoll.is_closed env.dev);
  let raised = try Devpoll.write env.dev []; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "write after close rejected" true raised

let test_independent_interest_sets () =
  (* A process may open /dev/poll several times. *)
  let env = mk () in
  let dev2 = Devpoll.create ~host:env.host ~lookup:(Hashtbl.find_opt env.sockets) in
  let s = add env 1 in
  ignore (add env 2);
  Devpoll.write env.dev [ (1, Pollmask.pollin) ];
  Devpoll.write dev2 [ (2, Pollmask.pollin) ];
  ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
  let got1 = ref [] and got2 = ref [] in
  Devpoll.dp_poll env.dev ~max_results:4 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun rs -> got1 := rs));
  Devpoll.dp_poll dev2 ~max_results:4 ~timeout:(Some Time.zero)
    ~k:(Helpers.pairs (fun rs -> got2 := rs));
  Engine.run env.engine;
  Alcotest.(check int) "set 1 sees its event" 1 (List.length !got1);
  Alcotest.(check int) "set 2 sees nothing" 0 (List.length !got2)

let prop_devpoll_agrees_with_poll =
  (* On any random script of socket states, a devpoll scan and a poll
     scan must report identical readiness. *)
  QCheck.Test.make ~name:"devpoll and poll agree on readiness" ~count:150
    QCheck.(list_of_size Gen.(1 -- 20) (int_bound 3))
    (fun script ->
      let env = mk () in
      let n = List.length script in
      List.iteri
        (fun fd action ->
          let s = add env fd in
          match action with
          | 0 -> () (* idle *)
          | 1 -> ignore (Socket.deliver s ~bytes_len:1 ~payload:"")
          | 2 -> Socket.peer_closed s
          | _ -> Socket.reset s)
        script;
      let interests = List.init n (fun fd -> (fd, Pollmask.pollin)) in
      Devpoll.write env.dev interests;
      let dp = ref [] and pl = ref [] in
      Devpoll.dp_poll env.dev ~max_results:n ~timeout:(Some Time.zero)
        ~k:(Helpers.pairs (fun rs -> dp := rs));
      Poll.wait ~host:env.host ~lookup:(Hashtbl.find_opt env.sockets) ~interests
        ~timeout:(Some Time.zero) ~k:(Helpers.pairs (fun rs -> pl := rs));
      Engine.run env.engine;
      let norm rs = List.sort compare rs in
      norm !dp = norm !pl)

let suite =
  [
    Alcotest.test_case "write builds interest set" `Quick test_write_builds_interest_set;
    Alcotest.test_case "dp_poll returns ready" `Quick test_poll_returns_ready;
    Alcotest.test_case "blocks until hint" `Quick test_blocks_until_hint;
    Alcotest.test_case "max_results caps" `Quick test_max_results_caps;
    Alcotest.test_case "timeout" `Quick test_timeout;
    Alcotest.test_case "missing fd reports NVAL" `Quick test_missing_fd_reports_nval;
    Alcotest.test_case "hints avoid driver callbacks" `Quick test_hints_avoid_driver_callbacks;
    Alcotest.test_case "hint triggers revalidation" `Quick test_hint_triggers_revalidation;
    Alcotest.test_case "ready cache always revalidated" `Quick
      test_ready_cache_always_revalidated;
    Alcotest.test_case "unhinted driver always polled" `Quick test_unhinted_driver_always_polled;
    Alcotest.test_case "fd reuse rebinds backmap" `Quick test_fd_reuse_rebinds_backmap;
    Alcotest.test_case "mmap removes copy-out cost" `Quick test_mmap_removes_copyout_cost;
    Alcotest.test_case "result map slots cap results" `Quick test_result_map_slots_cap_results;
    Alcotest.test_case "double DP_ALLOC rejected" `Quick test_alloc_map_twice_rejected;
    Alcotest.test_case "close releases subscriptions" `Quick test_close_releases_subscriptions;
    Alcotest.test_case "independent interest sets" `Quick test_independent_interest_sets;
    QCheck_alcotest.to_alcotest prop_devpoll_agrees_with_poll;
  ]
