open Sio_sim

let int_heap () = Heap.create ~leq:(fun (a : int) b -> a <= b) ()

let test_empty () =
  let h = int_heap () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check (option int)) "peek" None (Heap.peek h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h)

let test_pop_exn_empty () =
  let h = int_heap () in
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_single () =
  let h = int_heap () in
  Heap.push h 7;
  Alcotest.(check (option int)) "peek" (Some 7) (Heap.peek h);
  Alcotest.(check int) "length" 1 (Heap.length h);
  Alcotest.(check (option int)) "pop" (Some 7) (Heap.pop h);
  Alcotest.(check bool) "empty after pop" true (Heap.is_empty h)

let test_ordering () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 5; 3; 9; 1; 7; 2; 8; 4; 6; 0 ];
  let popped = List.init 10 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] popped

let test_duplicates () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 2; 1; 2; 1; 2 ];
  let popped = List.init 5 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 2; 2; 2 ] popped

let test_interleaved () =
  let h = int_heap () in
  Heap.push h 5;
  Heap.push h 1;
  Alcotest.(check (option int)) "pop1" (Some 1) (Heap.pop h);
  Heap.push h 3;
  Heap.push h 0;
  Alcotest.(check (option int)) "pop2" (Some 0) (Heap.pop h);
  Alcotest.(check (option int)) "pop3" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "pop4" (Some 5) (Heap.pop h)

let test_clear () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Heap.clear h;
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 9;
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Heap.pop h)

let test_to_list () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  let l = List.sort compare (Heap.to_list h) in
  Alcotest.(check (list int)) "contents" [ 1; 2; 3 ] l;
  Alcotest.(check int) "length unchanged" 3 (Heap.length h)

let test_growth () =
  let h = Heap.create ~initial_capacity:2 ~leq:(fun (a : int) b -> a <= b) () in
  for i = 999 downto 0 do
    Heap.push h i
  done;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  for i = 0 to 999 do
    Alcotest.(check int) (Printf.sprintf "pop %d" i) i (Heap.pop_exn h)
  done

let prop_heap_sort =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = int_heap () in
      List.iter (Heap.push h) l;
      let popped = List.init (List.length l) (fun _ -> Heap.pop_exn h) in
      popped = List.sort compare l)

let prop_heap_mixed_ops =
  QCheck.Test.make ~name:"heap invariant under mixed push/pop" ~count:200
    QCheck.(list (option small_nat))
    (fun ops ->
      (* [Some n] pushes n, [None] pops; compare against a sorted-list model. *)
      let h = int_heap () in
      let model = ref [] in
      let rec insert n = function
        | m :: rest when m < n -> m :: insert n rest
        | l -> n :: l
      in
      List.iter
        (fun op ->
          match op with
          | Some n ->
              Heap.push h n;
              model := insert n !model
          | None -> (
              let got = Heap.pop h in
              match !model with
              | [] -> assert (got = None)
              | m :: rest ->
                  assert (got = Some m);
                  model := rest))
        ops;
      Heap.length h = List.length !model)

(* Vacated slots must not pin popped elements: a heap that lives for
   the whole run (the engine's event queue) would otherwise leak every
   closure it ever dispatched. *)
let weak_of push_use =
  let w = Weak.create 3 in
  (* Allocate inside a closure so no stack root outlives the calls. *)
  (fun () ->
    let h = Heap.create ~leq:(fun (a : int ref) b -> !a <= !b) () in
    for i = 0 to 2 do
      let v = ref i in
      Weak.set w i (Some v);
      Heap.push h v
    done;
    push_use h)
    ();
  Gc.full_major ();
  List.init 3 (fun i -> Weak.check w i)

let test_pop_releases () =
  let live = weak_of (fun h -> for _ = 1 to 3 do ignore (Heap.pop h) done) in
  Alcotest.(check (list bool)) "all popped elements collected" [ false; false; false ] live

let test_clear_releases () =
  let live = weak_of Heap.clear in
  Alcotest.(check (list bool)) "all cleared elements collected" [ false; false; false ] live

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pop_exn on empty raises" `Quick test_pop_exn_empty;
    Alcotest.test_case "single element" `Quick test_single;
    Alcotest.test_case "pops in order" `Quick test_ordering;
    Alcotest.test_case "duplicates preserved" `Quick test_duplicates;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "clear resets" `Quick test_clear;
    Alcotest.test_case "to_list snapshots" `Quick test_to_list;
    Alcotest.test_case "grows past capacity" `Quick test_growth;
    Alcotest.test_case "pop releases elements" `Quick test_pop_releases;
    Alcotest.test_case "clear releases elements" `Quick test_clear_releases;
    QCheck_alcotest.to_alcotest prop_heap_sort;
    QCheck_alcotest.to_alcotest prop_heap_mixed_ops;
  ]
