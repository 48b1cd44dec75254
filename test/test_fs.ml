open Sio_sim
open Sio_kernel

(* --- Page_cache --- *)

let key file_id page = (file_id, page)
let touch c (file_id, page) = Page_cache.touch c ~file_id ~page
let contains c (file_id, page) = Page_cache.contains c ~file_id ~page

let test_cache_hit_miss () =
  let c = Page_cache.create ~capacity_pages:4 in
  Alcotest.(check bool) "first is miss" true (touch c (key 1 0) = `Miss);
  Alcotest.(check bool) "second is hit" true (touch c (key 1 0) = `Hit);
  Alcotest.(check int) "hits" 1 (Page_cache.hits c);
  Alcotest.(check int) "misses" 1 (Page_cache.misses c);
  Alcotest.(check int) "resident" 1 (Page_cache.resident c)

let test_lru_eviction () =
  let c = Page_cache.create ~capacity_pages:2 in
  ignore (touch c (key 1 0));
  ignore (touch c (key 1 1));
  ignore (touch c (key 1 0)) (* 0 now MRU, 1 is LRU *);
  ignore (touch c (key 1 2)) (* evicts page 1 *);
  Alcotest.(check bool) "page 0 kept" true (contains c (key 1 0));
  Alcotest.(check bool) "page 1 evicted" false (contains c (key 1 1));
  Alcotest.(check bool) "page 2 resident" true (contains c (key 1 2))

let test_invalidate_file () =
  let c = Page_cache.create ~capacity_pages:8 in
  ignore (touch c (key 1 0));
  ignore (touch c (key 1 1));
  ignore (touch c (key 2 0));
  Alcotest.(check int) "two dropped" 2 (Page_cache.invalidate_file c ~file_id:1);
  Alcotest.(check int) "one left" 1 (Page_cache.resident c);
  Alcotest.(check bool) "other file kept" true (contains c (key 2 0))

let prop_resident_bounded =
  QCheck.Test.make ~name:"resident pages never exceed capacity" ~count:200
    QCheck.(pair (int_range 1 16) (list (pair (int_bound 4) (int_bound 50))))
    (fun (cap, touches) ->
      let c = Page_cache.create ~capacity_pages:cap in
      List.iter (fun (f, p) -> ignore (touch c (key f p))) touches;
      Page_cache.resident c <= cap)

let prop_lru_recency =
  QCheck.Test.make ~name:"most recently touched page is always resident" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(1 -- 60) (int_bound 40)))
    (fun (cap, pages) ->
      let c = Page_cache.create ~capacity_pages:cap in
      List.iter (fun p -> ignore (touch c (key 0 p))) pages;
      match List.rev pages with
      | last :: _ -> contains c (key 0 last)
      | [] -> true)

(* --- Fs --- *)

let mk_fs ?cache_pages () =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_costed_host engine in
  let fs =
    match cache_pages with
    | Some n -> Fs.create ~host ~cache_pages:n ()
    | None -> Fs.create ~host ()
  in
  (engine, host, fs)

let test_stat () =
  let _, _, fs = mk_fs () in
  Fs.add_file fs ~path:"/index.html" ~bytes:6144;
  Alcotest.(check bool) "stat finds" true (Fs.stat fs "/index.html" = Ok 6144);
  Alcotest.(check bool) "missing" true (Fs.stat fs "/nope" = Error `Enoent);
  Alcotest.(check int) "file count" 1 (Fs.file_count fs)

let test_read_warms_cache () =
  let _, _, fs = mk_fs () in
  Fs.add_file fs ~path:"/doc" ~bytes:10_000 (* 3 pages *);
  Alcotest.(check bool) "read ok" true (Fs.read_file fs "/doc" = Ok 10_000);
  Alcotest.(check int) "3 cold misses" 3 (Fs.cache_misses fs);
  ignore (Fs.read_file fs "/doc");
  Alcotest.(check int) "second read all hits" 3 (Fs.cache_hits fs);
  Alcotest.(check int) "no new misses" 3 (Fs.cache_misses fs)

let test_cold_read_stalls_cpu () =
  let _, host, fs = mk_fs () in
  Fs.add_file fs ~path:"/doc" ~bytes:6144;
  let before = Cpu.total_busy host.Host.cpu in
  ignore (Fs.read_file fs "/doc");
  let cold = Time.sub (Cpu.total_busy host.Host.cpu) before in
  let before = Cpu.total_busy host.Host.cpu in
  ignore (Fs.read_file fs "/doc");
  let warm = Time.sub (Cpu.total_busy host.Host.cpu) before in
  (* Two pages at 9 ms disk each vs microseconds of probing. *)
  Alcotest.(check bool) "cold read stalls ~18ms" true (cold >= Time.ms 17);
  Alcotest.(check bool) "warm read nearly free" true (warm < Time.ms 1)

let test_replace_invalidates () =
  let _, _, fs = mk_fs () in
  Fs.add_file fs ~path:"/doc" ~bytes:6144;
  ignore (Fs.read_file fs "/doc");
  Fs.add_file fs ~path:"/doc" ~bytes:4096;
  Alcotest.(check int) "cache dropped" 0 (Fs.cache_resident_pages fs);
  Alcotest.(check bool) "new size" true (Fs.stat fs "/doc" = Ok 4096)

let test_working_set_larger_than_cache () =
  let _, _, fs = mk_fs ~cache_pages:4 () in
  for i = 0 to 7 do
    Fs.add_file fs ~path:(Printf.sprintf "/f%d" i) ~bytes:4096
  done;
  for i = 0 to 7 do
    ignore (Fs.read_file fs (Printf.sprintf "/f%d" i))
  done;
  (* Second pass still misses: the working set does not fit. *)
  let misses_before = Fs.cache_misses fs in
  for i = 0 to 7 do
    ignore (Fs.read_file fs (Printf.sprintf "/f%d" i))
  done;
  Alcotest.(check bool) "thrashing" true (Fs.cache_misses fs > misses_before);
  Alcotest.(check int) "bounded residency" 4 (Fs.cache_resident_pages fs)

(* --- sendfile --- *)

let test_sendfile_cheaper_than_write () =
  let rig = Helpers.mk_rig ~costs:Sio_kernel.Cost_model.default () in
  let handlers = Sio_kernel.Tcp.null_handlers in
  ignore (Sio_kernel.Tcp.connect ~net:rig.Helpers.net ~listener:rig.Helpers.listener ~handlers ());
  Sio_sim.Engine.run ~until:(Time.ms 10) rig.Helpers.engine;
  let fd, _ = Helpers.ok (Kernel.accept rig.Helpers.proc rig.Helpers.listen_fd) in
  let busy () = Cpu.total_busy rig.Helpers.host.Host.cpu in
  let b0 = busy () in
  ignore (Helpers.ok (Kernel.write rig.Helpers.proc fd ~bytes_len:6144));
  let write_cost = Time.sub (busy ()) b0 in
  let b1 = busy () in
  ignore (Helpers.ok (Kernel.sendfile rig.Helpers.proc fd ~bytes_len:6144));
  let sendfile_cost = Time.sub (busy ()) b1 in
  Alcotest.(check bool) "sendfile at least 1.5x cheaper" true
    (Time.to_us_f write_cost > 1.5 *. Time.to_us_f sendfile_cost)

let suite =
  [
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "invalidate file" `Quick test_invalidate_file;
    QCheck_alcotest.to_alcotest prop_resident_bounded;
    QCheck_alcotest.to_alcotest prop_lru_recency;
    Alcotest.test_case "stat" `Quick test_stat;
    Alcotest.test_case "read warms the cache" `Quick test_read_warms_cache;
    Alcotest.test_case "cold read stalls the CPU" `Quick test_cold_read_stalls_cpu;
    Alcotest.test_case "replace invalidates" `Quick test_replace_invalidates;
    Alcotest.test_case "working set larger than cache" `Quick
      test_working_set_larger_than_cache;
    Alcotest.test_case "sendfile cheaper than write" `Quick test_sendfile_cheaper_than_write;
  ]
