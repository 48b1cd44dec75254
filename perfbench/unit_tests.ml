(* Unit checks of the benchmark's own OCaml code; exits 1 on the first
   failure. test_perfbench.py builds and runs it. *)

open Sio_sim

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    prerr_endline ("FAIL: " ^ name)
  end

let histogram samples =
  let h = Histogram.create () in
  List.iter (Histogram.add h) samples;
  h

(* A body near 2 ms and a tail near 57 ms, with empty buckets between:
   p99 falls in the tail's bucket [56.0, 57.6) ms and must be read
   inside it, not interpolated across the gap. *)
let two_clusters () =
  let body = List.init 980 (fun i -> Time.us (1900 + (i mod 200))) in
  let tail = List.init 20 (fun i -> Time.us (57_000 + (i * 25))) in
  let p99 = Percentile.interpolated (histogram (body @ tail)) 99. in
  check (Printf.sprintf "two clusters: p99 %.3f ms in [56.0, 57.6]" p99) (p99 >= 56.0 && p99 <= 57.6);
  let p50 = Percentile.interpolated (histogram (body @ tail)) 50. in
  check (Printf.sprintf "two clusters: p50 %.3f ms in [1.9, 2.1]" p50) (p50 >= 1.9 && p50 <= 2.1)

(* Every estimate lies in the bucket of the sample it stands for. *)
let inside_the_true_bucket () =
  let rng = Random.State.make [| 7 |] in
  for trial = 1 to 200 do
    let n = 1 + Random.State.int rng 400 in
    let draw () =
      match trial mod 3 with
      | 0 -> Random.State.int rng (Time.ms 3)
      | 1 -> Time.us 500 + Random.State.int rng (Time.ms 200)
      | _ -> if Random.State.int rng 10 = 0 then Time.ms 60 else Time.us (1500 + Random.State.int rng 600)
    in
    let samples = List.init n (fun _ -> draw ()) in
    let sorted = Array.of_list (List.sort compare samples) in
    let h = histogram samples in
    List.iter
      (fun p ->
        let k = Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
        let truth = sorted.(k - 1) in
        let lo = Stdlib.max (Percentile.bucket_lower truth) sorted.(0) in
        let hi = Stdlib.min (Histogram.percentile h p) sorted.(n - 1) in
        let est = Percentile.interpolated h p in
        check
          (Printf.sprintf "trial %d p%.0f: %.4f ms outside [%.4f, %.4f]" trial p est (Time.to_ms_f lo)
             (Time.to_ms_f hi))
          (est >= Time.to_ms_f lo -. 1e-9 && est <= Time.to_ms_f hi +. 1e-9))
      [ 1.; 25.; 50.; 90.; 99.; 99.9; 100. ]
  done

let () =
  two_clusters ();
  inside_the_true_bucket ();
  check "empty histogram reads 0" (Percentile.interpolated (Histogram.create ()) 50. = 0.);
  if !failures > 0 then exit 1;
  print_endline "perfbench unit tests: ok"
