open Sio_kernel

let test_set_and_find () =
  let t = Interest_table.create () in
  Alcotest.(check bool) "added" true (Interest_table.set t ~fd:5 ~events:Pollmask.pollin = `Added);
  (match Interest_table.find t 5 with
  | Some i -> Alcotest.check Helpers.mask "events" Pollmask.pollin i.Interest_table.events
  | None -> Alcotest.fail "missing interest");
  Alcotest.(check int) "length" 1 (Interest_table.length t)

let test_linux_replace_semantics () =
  let t = Interest_table.create () in
  ignore (Interest_table.set t ~fd:3 ~events:Pollmask.pollin);
  (* Linux semantics: events replace; Solaris would OR. *)
  Alcotest.(check bool) "modified" true
    (Interest_table.set t ~fd:3 ~events:Pollmask.pollout = `Modified);
  match Interest_table.find t 3 with
  | Some i -> Alcotest.check Helpers.mask "replaced" Pollmask.pollout i.Interest_table.events
  | None -> Alcotest.fail "missing"

let test_solaris_or_semantics () =
  let t = Interest_table.create () in
  ignore (Interest_table.set_solaris t ~fd:3 ~events:Pollmask.pollin);
  ignore (Interest_table.set_solaris t ~fd:3 ~events:Pollmask.pollout);
  match Interest_table.find t 3 with
  | Some i ->
      Alcotest.check Helpers.mask "ORed"
        (Pollmask.union Pollmask.pollin Pollmask.pollout)
        i.Interest_table.events
  | None -> Alcotest.fail "missing"

let test_modify_resets_hint_and_cache () =
  let t = Interest_table.create () in
  ignore (Interest_table.set t ~fd:1 ~events:Pollmask.pollin);
  (match Interest_table.find t 1 with
  | Some i ->
      i.Interest_table.hint <- Pollmask.pollin;
      i.Interest_table.cached <- Pollmask.pollin;
      i.Interest_table.cache_valid <- true
  | None -> Alcotest.fail "missing");
  ignore (Interest_table.set t ~fd:1 ~events:Pollmask.pollin);
  match Interest_table.find t 1 with
  | Some i ->
      Alcotest.check Helpers.mask "hint cleared" Pollmask.empty i.Interest_table.hint;
      Alcotest.(check bool) "cache cleared" false i.Interest_table.cache_valid
  | None -> Alcotest.fail "missing"

let test_remove () =
  let t = Interest_table.create () in
  ignore (Interest_table.set t ~fd:7 ~events:Pollmask.pollin);
  Alcotest.(check bool) "removed" true (Interest_table.remove t 7);
  Alcotest.(check bool) "already gone" false (Interest_table.remove t 7);
  Alcotest.(check int) "empty" 0 (Interest_table.length t);
  Alcotest.(check bool) "find misses" true (Interest_table.find t 7 = None)

let test_doubling_at_mean_two () =
  let t = Interest_table.create ~initial_buckets:4 () in
  (* Paper: double the bucket array when mean occupancy reaches 2;
     never shrink. 4 buckets double at 8 entries. *)
  for fd = 0 to 7 do
    ignore (Interest_table.set t ~fd ~events:Pollmask.pollin)
  done;
  Alcotest.(check int) "doubled once" 8 (Interest_table.bucket_count t);
  for fd = 8 to 15 do
    ignore (Interest_table.set t ~fd ~events:Pollmask.pollin)
  done;
  Alcotest.(check int) "doubled twice" 16 (Interest_table.bucket_count t);
  for fd = 0 to 15 do
    ignore (Interest_table.remove t fd)
  done;
  Alcotest.(check int) "never shrinks" 16 (Interest_table.bucket_count t);
  Alcotest.(check int) "empty again" 0 (Interest_table.length t)

let test_survives_resize () =
  let t = Interest_table.create ~initial_buckets:2 () in
  for fd = 0 to 99 do
    ignore (Interest_table.set t ~fd ~events:Pollmask.pollin)
  done;
  for fd = 0 to 99 do
    match Interest_table.find t fd with
    | Some i -> Alcotest.(check int) "fd kept" fd i.Interest_table.fd
    | None -> Alcotest.failf "fd %d lost in resize" fd
  done

let test_iter_fold () =
  let t = Interest_table.create () in
  List.iter (fun fd -> ignore (Interest_table.set t ~fd ~events:Pollmask.pollin)) [ 1; 2; 3 ];
  let sum = Interest_table.fold t ~init:0 ~f:(fun acc i -> acc + i.Interest_table.fd) in
  Alcotest.(check int) "fold" 6 sum;
  let n = ref 0 in
  Interest_table.iter t (fun _ -> incr n);
  Alcotest.(check int) "iter" 3 !n

let prop_matches_model_map =
  QCheck.Test.make ~name:"interest table behaves like a map" ~count:300
    QCheck.(list (pair (int_bound 50) (option (int_bound 3))))
    (fun ops ->
      (* (fd, None) removes; (fd, Some e) sets one of 4 event masks. *)
      let t = Interest_table.create ~initial_buckets:2 () in
      let model : (int, Pollmask.t) Hashtbl.t = Hashtbl.create 16 in
      let masks = [| Pollmask.pollin; Pollmask.pollout; Pollmask.readable; Pollmask.pollpri |] in
      List.iter
        (fun (fd, op) ->
          match op with
          | None ->
              ignore (Interest_table.remove t fd);
              Hashtbl.remove model fd
          | Some e ->
              ignore (Interest_table.set t ~fd ~events:masks.(e));
              Hashtbl.replace model fd masks.(e))
        ops;
      Interest_table.length t = Hashtbl.length model
      && Hashtbl.fold
           (fun fd events acc ->
             acc
             &&
             match Interest_table.find t fd with
             | Some i -> Pollmask.equal i.Interest_table.events events
             | None -> false)
           model true)

let suite =
  [
    Alcotest.test_case "set and find" `Quick test_set_and_find;
    Alcotest.test_case "Linux replace semantics" `Quick test_linux_replace_semantics;
    Alcotest.test_case "Solaris OR semantics" `Quick test_solaris_or_semantics;
    Alcotest.test_case "modify resets hint and cache" `Quick test_modify_resets_hint_and_cache;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "doubles at mean occupancy 2, never shrinks" `Quick
      test_doubling_at_mean_two;
    Alcotest.test_case "contents survive resize" `Quick test_survives_resize;
    Alcotest.test_case "iter and fold" `Quick test_iter_fold;
    QCheck_alcotest.to_alcotest prop_matches_model_map;
  ]
