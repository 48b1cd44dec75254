open Sio_sim

(* Option-returning views over the sentinel API, for readable checks. *)
let next_time q =
  let t = Event_queue.peek_time q in
  if t = Event_queue.no_event then None else Some t

let pop_due q ~now =
  match next_time q with
  | Some t when t <= now -> Some (Event_queue.pop q)
  | Some _ | None -> None

let test_schedule_pop_due () =
  let q = Event_queue.create () in
  let fired = ref [] in
  ignore (Event_queue.schedule q ~at:(Time.ms 5) (fun () -> fired := 5 :: !fired));
  ignore (Event_queue.schedule q ~at:(Time.ms 2) (fun () -> fired := 2 :: !fired));
  Alcotest.(check (option int)) "next_time" (Some (Time.ms 2)) (next_time q);
  (match pop_due q ~now:(Time.ms 3) with
  | Some action -> action ()
  | None -> Alcotest.fail "expected due event");
  Alcotest.(check (list int)) "earliest popped" [ 2 ] !fired;
  Alcotest.(check bool) "later not due" true (pop_due q ~now:(Time.ms 3) = None)

let test_negative_time_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Event_queue.schedule: negative time")
    (fun () -> ignore (Event_queue.schedule q ~at:(-1) (fun () -> ())))

let test_cancel_semantics () =
  let q = Event_queue.create () in
  let h1 = Event_queue.schedule q ~at:(Time.ms 1) (fun () -> ()) in
  let h2 = Event_queue.schedule q ~at:(Time.ms 2) (fun () -> ()) in
  Alcotest.(check int) "two live" 2 (Event_queue.length q);
  Event_queue.cancel q h1;
  Alcotest.(check int) "one live" 1 (Event_queue.length q);
  Alcotest.(check bool) "h1 not pending" false (Event_queue.is_pending q h1);
  Alcotest.(check bool) "h2 pending" true (Event_queue.is_pending q h2);
  (* Double cancel is a no-op; the count must not underflow. *)
  Event_queue.cancel q h1;
  Alcotest.(check int) "still one" 1 (Event_queue.length q);
  (* Cancelled head is skipped transparently. *)
  Alcotest.(check (option int)) "next skips cancelled" (Some (Time.ms 2))
    (next_time q)

let prop_fifo_among_equal_times =
  QCheck.Test.make ~name:"events at one instant pop in schedule order" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let q = Event_queue.create () in
      let fired = ref [] in
      for i = 0 to n - 1 do
        ignore (Event_queue.schedule q ~at:(Time.ms 1) (fun () -> fired := i :: !fired))
      done;
      let rec drain () =
        match pop_due q ~now:(Time.ms 1) with
        | Some action ->
            action ();
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !fired = List.init n Fun.id)

let prop_cancel_never_fires =
  QCheck.Test.make ~name:"cancelled events never pop" ~count:200
    QCheck.(list (pair (int_bound 100) bool))
    (fun specs ->
      let q = Event_queue.create () in
      let fired = Hashtbl.create 16 in
      let handles =
        List.mapi
          (fun i (at, cancel) ->
            let h = Event_queue.schedule q ~at (fun () -> Hashtbl.replace fired i ()) in
            (h, cancel))
          specs
      in
      List.iter (fun (h, cancel) -> if cancel then Event_queue.cancel q h) handles;
      let rec drain () =
        match pop_due q ~now:1000 with
        | Some action ->
            action ();
            drain ()
        | None -> ()
      in
      drain ();
      List.for_all2
        (fun (_, cancelled) i -> if cancelled then not (Hashtbl.mem fired i) else Hashtbl.mem fired i)
        handles
        (List.init (List.length handles) Fun.id))

(* Regression: a fired event's handle must answer false, not true —
   the old Hashtbl scheme forgot events once they fired and could not
   tell "fired" from "still pending". *)
let test_fired_event_not_pending () =
  let q = Event_queue.create () in
  let h = Event_queue.schedule q ~at:(Time.ms 1) (fun () -> ()) in
  Alcotest.(check bool) "pending before firing" true (Event_queue.is_pending q h);
  (match pop_due q ~now:(Time.ms 1) with
  | Some action -> action ()
  | None -> Alcotest.fail "expected due event");
  Alcotest.(check bool) "not pending after firing" false (Event_queue.is_pending q h);
  (* Cancelling a fired event is a no-op and must not underflow. *)
  Event_queue.cancel q h;
  Alcotest.(check int) "length stays 0" 0 (Event_queue.length q)

(* Regression: slot reuse. A stale handle to a fired event must not be
   able to cancel the unrelated event that now occupies its slot. *)
let test_stale_handle_cannot_touch_reused_slot () =
  let q = Event_queue.create ~initial_capacity:1 () in
  let h1 = Event_queue.schedule q ~at:(Time.ms 1) (fun () -> ()) in
  (match pop_due q ~now:(Time.ms 1) with
  | Some action -> action ()
  | None -> Alcotest.fail "expected due event");
  let fired = ref false in
  let h2 = Event_queue.schedule q ~at:(Time.ms 2) (fun () -> fired := true) in
  Event_queue.cancel q h1;
  (* stale: must not hit h2's slot *)
  Alcotest.(check bool) "h2 still pending" true (Event_queue.is_pending q h2);
  Alcotest.(check bool) "h1 stale" false (Event_queue.is_pending q h1);
  Alcotest.(check int) "one live" 1 (Event_queue.length q);
  (match pop_due q ~now:(Time.ms 2) with
  | Some action -> action ()
  | None -> Alcotest.fail "h2 must still fire");
  Alcotest.(check bool) "h2 fired" true !fired

(* Model-based property: random schedule/cancel/pop interleavings on
   the generation-stamped queue match a naive reference model (a list
   scanned for the earliest (time, seq) pending event). *)
type model_event = {
  idx : int;
  at : Time.t;
  handle : Event_queue.handle;
  mutable cancelled : bool;
  mutable fired : bool;
}

let prop_matches_reference_model =
  QCheck.Test.make ~name:"random interleavings match a reference model" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      let q = Event_queue.create ~initial_capacity:1 () in
      let model = ref [] (* newest first *) in
      let now = ref 0 in
      let last_fired = ref (-1) in
      let live () = List.length (List.filter (fun e -> not (e.cancelled || e.fired)) !model) in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      List.iter
        (fun (op, arg) ->
          (match op with
          | 0 ->
              (* schedule at an arbitrary non-negative time *)
              let idx = List.length !model in
              let at = arg in
              let handle = Event_queue.schedule q ~at (fun () -> last_fired := idx) in
              model := { idx; at; handle; cancelled = false; fired = false } :: !model
          | 1 -> (
              (* cancel an arbitrary previously issued handle, live or stale *)
              match !model with
              | [] -> ()
              | evs ->
                  let e = List.nth evs (arg mod List.length evs) in
                  Event_queue.cancel q e.handle;
                  if not (e.cancelled || e.fired) then e.cancelled <- true)
          | _ -> (
              (* advance time and pop one due event *)
              now := !now + arg;
              let expected =
                List.fold_left
                  (fun best e ->
                    if e.cancelled || e.fired || e.at > !now then best
                    else
                      match best with
                      | Some b
                        when b.at < e.at || (b.at = e.at && b.idx < e.idx) ->
                          best
                      | _ -> Some e)
                  None !model
              in
              match (pop_due q ~now:!now, expected) with
              | None, None -> ()
              | Some action, Some e ->
                  action ();
                  expect (!last_fired = e.idx);
                  e.fired <- true
              | Some _, None | None, Some _ -> expect false));
          (* after every op the queue and the model agree everywhere *)
          expect (Event_queue.length q = live ());
          List.iter
            (fun e ->
              expect
                (Event_queue.is_pending q e.handle = not (e.cancelled || e.fired)))
            !model)
        ops;
      !ok)

let suite =
  [
    Alcotest.test_case "schedule and pop_due" `Quick test_schedule_pop_due;
    Alcotest.test_case "negative time rejected" `Quick test_negative_time_rejected;
    Alcotest.test_case "cancel semantics" `Quick test_cancel_semantics;
    Alcotest.test_case "fired events are not pending" `Quick test_fired_event_not_pending;
    Alcotest.test_case "stale handles cannot touch reused slots" `Quick
      test_stale_handle_cannot_touch_reused_slot;
    QCheck_alcotest.to_alcotest prop_fifo_among_equal_times;
    QCheck_alcotest.to_alcotest prop_cancel_never_fires;
    QCheck_alcotest.to_alcotest prop_matches_reference_model;
  ]
