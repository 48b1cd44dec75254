(* Sequential-vs-parallel wall-clock for a reference figure set.

   Runs the same 13-point sweeps (fig5 and fig11, the determinism
   suite's reference figures) plus tiny legs of the post-paper figures
   once sequentially and once on a Domain_pool, checks the two produce byte-identical CSV, and writes
   the timings to BENCH_wallclock.json so the repo's perf trajectory
   is measurable PR over PR. Exits non-zero if the parallel results
   diverge — the Makefile's bench-smoke target leans on that. *)

module Figures = Scalanio.Figures

let parse_args () =
  let scale = ref 0.1 in
  let jobs = ref 0 in
  let out = ref "BENCH_wallclock.json" in
  let figures = ref [] in
  let spec =
    [
      ("--scale", Arg.Set_float scale, "F fraction of 35000 connections per point (default 0.1)");
      ( "--jobs",
        Arg.Set_int jobs,
        "N pool size for the parallel pass, at least 2 (default 0 = min(cores-1, points))" );
      ("--out", Arg.Set_string out, "PATH where to write the JSON report");
    ]
  in
  Arg.parse spec
    (fun a -> figures := a :: !figures)
    "bench_wallclock [--scale F] [--jobs N] [--out PATH] [FIGURE...]";
  if !jobs < 0 then begin
    prerr_endline "bench_wallclock: --jobs must be >= 0";
    exit 2
  end;
  let figures = match List.rev !figures with [] -> [ "fig5"; "fig11" ] | fs -> fs in
  (!scale, !jobs, !out, figures)

let resolve id =
  match Figures.find id with
  | Some fig -> fig
  | None ->
      Fmt.epr "bench_wallclock: unknown figure %S@." id;
      exit 2

(* Every number a figure produces, as one string: any divergence
   between the two passes shows up as a fingerprint mismatch. Each
   figure writes through its own columns, so the idle leg's modeled
   kernel-bytes column is held to byte identity too (host RSS
   deliberately isn't — no column can carry it). *)
let fingerprint legs =
  String.concat "\n"
    (List.concat_map
       (fun (fig, series) ->
         List.map (Sio_loadgen.Report.csv_of_series ~axis:fig.Figures.axis fig.Figures.columns) series)
       legs)

(* Measuring host wall time is the entire point of this bench; it
   never feeds back into the simulation (only the CSV fingerprint,
   computed from simulated state, is compared for identity). *)
let timed f =
  let t0 = (Unix.gettimeofday () [@lint.ignore "host wall-clock is this bench's measurand"]) in
  let r = f () in
  (r, (Unix.gettimeofday () [@lint.ignore "host wall-clock is this bench's measurand"]) -. t0)

(* Tiny legs of the post-paper figures folded into both passes, so
   their code paths are part of the byte-identity fingerprint too:
   - idle-scaling at {1, 51} idle: the incremental ready sets;
   - response-size at 1 KB and 16 KB: the streaming send machine, the
     transmit ring's page accounting and the per-page cost charging
     (16 KB exercises multi-page maps; 1 KB the partial-page and
     attach-fallback economics);
   - shard-scaling at {1, 2} shards: the steering pre-pass, the
     partitioned per-shard worlds and the order-insensitive outcome
     merge (the 2-shard points run their shards sequentially inside
     one pool task in the parallel pass, so scheduling independence
     is checked end to end). *)
let smoke_legs =
  Figures.[ (idle_scaling, Some [ 1; 51 ]); (response_size, Some [ 1024; 16384 ]); (shard_scaling, Some [ 1; 2 ]) ]

let () =
  let scale, jobs, out, figure_ids = parse_args () in
  let legs = List.map (fun id -> (resolve id, None)) figure_ids @ smoke_legs in
  let points = List.fold_left (fun n (fig, xs) -> n + Figures.point_count ?xs fig) 0 legs in
  let run pool = List.map (fun (fig, xs) -> (fig, Figures.run ?pool ~scale ?xs fig)) legs in
  Fmt.epr
    "bench_wallclock: %s+idle-scaling+response-size+shard-scaling, %d points/figure-set, scale %.2f@."
    (String.concat "+" figure_ids) points scale;
  let seq, seq_s = timed (fun () -> run None) in
  Fmt.epr "  sequential: %.2fs@." seq_s;
  let recommended = Domain.recommended_domain_count () in
  (* At least two domains whatever the core count: a 1-domain pool
     never runs two simulations at once, so it could not show a
     cross-domain race. Auto-sizing caps the pool at the point count:
     domains beyond the number of sweep points would only sit idle. *)
  let size = Stdlib.max 2 (if jobs = 0 then Stdlib.min (recommended - 1) points else jobs) in
  let pool = Sio_sim.Domain_pool.create ~size () in
  let par, par_s =
    Fun.protect
      ~finally:(fun () -> Sio_sim.Domain_pool.shutdown pool)
      (fun () -> timed (fun () -> run (Some pool)))
  in
  Fmt.epr "  parallel (%d domains): %.2fs@." size par_s;
  let identical = String.equal (fingerprint seq) (fingerprint par) in
  let speedup = if par_s > 0. then seq_s /. par_s else 0. in
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  "benchmark": "wallclock",
  "figures": [%s],
  "points": %d,
  "scale": %.3f,
  "seq_jobs": 1,
  "parallel_jobs": %d,
  "recommended_domains": %d,
  "sequential_s": %.3f,
  "parallel_s": %.3f,
  "speedup": %.2f,
  "identical": %b
}
|}
    (String.concat ", " (List.map (Printf.sprintf "%S") figure_ids))
    points scale size recommended seq_s par_s speedup identical;
  close_out oc;
  Fmt.epr "  speedup: %.2fx, identical: %b -> wrote %s@." speedup identical out;
  if not identical then begin
    Fmt.epr "bench_wallclock: FAIL — parallel results diverge from sequential@.";
    exit 1
  end
