open Sio_sim
open Sio_kernel

(* A tiny fd-keyed socket environment for driving Poll directly. *)
type env = {
  engine : Engine.t;
  host : Host.t;
  sockets : (int, Socket.t) Hashtbl.t;
}

let mk ?costs () =
  let engine = Helpers.mk_engine () in
  let host =
    match costs with
    | Some c -> Helpers.mk_host ~costs:c engine
    | None -> Helpers.mk_host engine
  in
  { engine; host; sockets = Hashtbl.create 8 }

let add env fd =
  let s = Socket.create_established ~host:env.host in
  Hashtbl.replace env.sockets fd s;
  s

let lookup env fd = Hashtbl.find_opt env.sockets fd

let poll env ~interests ~timeout ~k =
  Poll.wait ~host:env.host ~lookup:(lookup env) ~interests ~timeout ~k:(Helpers.pairs k)

let results_testable =
  Alcotest.(list (pair int Helpers.mask))


let test_immediate_ready () =
  let env = mk () in
  let s = add env 3 in
  ignore (Socket.deliver s ~bytes_len:10 ~payload:"");
  let got = ref None in
  poll env ~interests:[ (3, Pollmask.pollin) ] ~timeout:None ~k:(fun rs -> got := Some rs);
  Engine.run env.engine;
  match !got with
  | Some rs ->
      Alcotest.check results_testable "ready" [ (3, Pollmask.pollin) ] rs
  | None -> Alcotest.fail "poll never returned"

let test_timeout_zero_returns_empty () =
  let env = mk () in
  ignore (add env 1);
  let got = ref None in
  poll env ~interests:[ (1, Pollmask.pollin) ] ~timeout:(Some Time.zero)
    ~k:(fun rs -> got := Some rs);
  Engine.run env.engine;
  Alcotest.(check bool) "returned empty" true (!got = Some [])

let test_blocks_until_event () =
  let env = mk () in
  let s = add env 1 in
  let got_at = ref None in
  poll env ~interests:[ (1, Pollmask.pollin) ] ~timeout:None ~k:(fun rs ->
      got_at := Some (Engine.now env.engine, rs));
  ignore
    (Engine.at env.engine (Time.ms 50) (fun () ->
         ignore (Socket.deliver s ~bytes_len:5 ~payload:"")));
  Engine.run env.engine;
  match !got_at with
  | Some (t, rs) ->
      Alcotest.(check int) "woke at event time" (Time.ms 50) t;
      Alcotest.check results_testable "found event" [ (1, Pollmask.pollin) ] rs
  | None -> Alcotest.fail "poll never woke"

let test_timeout_fires () =
  let env = mk () in
  ignore (add env 1);
  let got_at = ref None in
  poll env ~interests:[ (1, Pollmask.pollin) ] ~timeout:(Some (Time.ms 30))
    ~k:(fun rs -> got_at := Some (Engine.now env.engine, rs));
  Engine.run env.engine;
  match !got_at with
  | Some (t, rs) ->
      Alcotest.(check int) "timed out at 30ms" (Time.ms 30) t;
      Alcotest.(check int) "empty result" 0 (List.length rs)
  | None -> Alcotest.fail "poll never returned"

let test_closed_fd_reports_nval () =
  let env = mk () in
  let got = ref None in
  poll env ~interests:[ (9, Pollmask.pollin) ] ~timeout:None ~k:(fun rs -> got := Some rs);
  Engine.run env.engine;
  match !got with
  | Some rs ->
      Alcotest.check results_testable "NVAL" [ (9, Pollmask.pollnval) ] rs
  | None -> Alcotest.fail "poll never returned"

let test_err_hup_forced () =
  let env = mk () in
  let s = add env 2 in
  Socket.reset s;
  let got = ref None in
  (* Subscribe only to POLLOUT; POLLERR must be reported anyway. *)
  poll env ~interests:[ (2, Pollmask.pollout) ] ~timeout:None ~k:(fun rs -> got := Some rs);
  Engine.run env.engine;
  match !got with
  | Some [ (_, revents) ] ->
      Alcotest.(check bool) "POLLERR forced" true (Pollmask.mem Pollmask.pollerr revents)
  | Some _ | None -> Alcotest.fail "expected one result"

let test_multiple_ready_in_interest_order () =
  let env = mk () in
  let s1 = add env 1 and s3 = add env 3 in
  ignore (add env 2);
  ignore (Socket.deliver s1 ~bytes_len:1 ~payload:"");
  ignore (Socket.deliver s3 ~bytes_len:1 ~payload:"");
  let got = ref None in
  poll env
    ~interests:[ (3, Pollmask.pollin); (1, Pollmask.pollin); (2, Pollmask.pollout) ]
    ~timeout:None
    ~k:(fun rs -> got := Some rs);
  Engine.run env.engine;
  match !got with
  | Some rs ->
      Alcotest.check results_testable "interest order, pollout of 2 also ready"
        [ (3, Pollmask.pollin); (1, Pollmask.pollin); (2, Pollmask.pollout) ]
        rs
  | None -> Alcotest.fail "poll never returned"

let test_scan_cost_scales_with_interest_size () =
  (* The heart of the paper's critique: poll() cost is O(interest set),
     even when nothing is ready. *)
  let run n =
    let env = mk ~costs:Cost_model.default () in
    for fd = 0 to n - 1 do
      ignore (add env fd)
    done;
    let interests = List.init n (fun fd -> (fd, Pollmask.pollin)) in
    poll env ~interests ~timeout:(Some Time.zero) ~k:(fun _ -> ());
    Engine.run env.engine;
    Cpu.total_busy env.host.Host.cpu
  in
  let c10 = run 10 and c1000 = run 1000 in
  Alcotest.(check bool) "1000 fds cost ~100x of 10 fds" true
    (c1000 > 50 * c10)

let test_driver_polled_per_interest () =
  let env = mk () in
  for fd = 0 to 9 do
    ignore (add env fd)
  done;
  let interests = List.init 10 (fun fd -> (fd, Pollmask.pollin)) in
  poll env ~interests ~timeout:(Some Time.zero) ~k:(fun _ -> ());
  Engine.run env.engine;
  Alcotest.(check int) "every driver asked" 10 env.host.Host.counters.Host.driver_polls

let test_wakeup_rescans_all () =
  let env = mk () in
  let sockets = List.init 10 (fun fd -> add env fd) in
  let interests = List.init 10 (fun fd -> (fd, Pollmask.pollin)) in
  poll env ~interests ~timeout:None ~k:(fun _ -> ());
  let before = env.host.Host.counters.Host.driver_polls in
  Alcotest.(check int) "initial scan polled all" 10 before;
  (match sockets with
  | s :: _ ->
      ignore
        (Engine.at env.engine (Time.ms 1) (fun () ->
             ignore (Socket.deliver s ~bytes_len:1 ~payload:"")))
  | [] -> assert false);
  Engine.run env.engine;
  Alcotest.(check int) "wakeup rescanned all 10" 20
    env.host.Host.counters.Host.driver_polls

let suite =
  [
    Alcotest.test_case "immediate ready" `Quick test_immediate_ready;
    Alcotest.test_case "timeout 0 returns empty" `Quick test_timeout_zero_returns_empty;
    Alcotest.test_case "blocks until event" `Quick test_blocks_until_event;
    Alcotest.test_case "timeout fires" `Quick test_timeout_fires;
    Alcotest.test_case "closed fd reports NVAL" `Quick test_closed_fd_reports_nval;
    Alcotest.test_case "ERR/HUP reported unsubscribed" `Quick test_err_hup_forced;
    Alcotest.test_case "results in interest order" `Quick test_multiple_ready_in_interest_order;
    Alcotest.test_case "scan cost is O(interests)" `Quick test_scan_cost_scales_with_interest_size;
    Alcotest.test_case "driver polled per interest" `Quick test_driver_polled_per_interest;
    Alcotest.test_case "wakeup rescans whole set" `Quick test_wakeup_rescans_all;
  ]
