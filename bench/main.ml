(* The full benchmark harness:

   1. bechamel microbenchmarks of the library's hot paths (wall time);
   2. simulated operation-cost tables (the paper's Section 3 claims);
   3. ablations of each design choice DESIGN.md calls out;
   4. regeneration of every figure of the paper's evaluation
      (Figures 4-14) plus the future-work extension experiments.

   Scale: figures default to a fraction of the paper's 35 000
   connections per point so the whole run finishes in minutes; pass
   e.g. `--scale 1.0 --step 50` for the paper's exact procedure. *)

let parse_args () =
  let scale = ref 0.06 in
  let step = ref 100 in
  let skip_micro = ref false in
  let jobs = ref 1 in
  let spec =
    [
      ("--scale", Arg.Set_float scale, "F fraction of 35000 connections per point (default 0.06)");
      ("--step", Arg.Set_int step, "N request-rate step for the sweeps (default 100)");
      ("--skip-micro", Arg.Set skip_micro, " skip the bechamel microbenchmarks");
      ( "--jobs",
        Arg.Set_int jobs,
        "N run sweep points on N domains (0 = auto, 1 = sequential; results identical)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench/main.exe";
  if !jobs < 0 then begin
    prerr_endline "bench/main.exe: --jobs must be >= 0";
    exit 2
  end;
  (!scale, !step, !skip_micro, !jobs)

let () =
  let scale, step, skip_micro, jobs = parse_args () in
  let ppf = Fmt.stdout in
  Fmt.pf ppf "scalanio benchmark harness — Provos & Lever (2000) reproduction@.";
  Fmt.pf ppf "figure scale: %.2f x 35000 connections/point, rate step %d@.@." scale step;
  if not skip_micro then Bench_lib.Bench_micro.run ppf;
  Bench_opcost.run ppf;
  Bench_ablation.run ppf ~scale;
  Bench_docsize.run ppf ~scale;
  Bench_docsize.internet_mix ppf ~scale;
  let rates = Sio_loadgen.Sweep.rates ~from:500 ~until:1100 ~step in
  let run_figures pool =
    List.iter
      (fun fig ->
        let series = Scalanio.Figures.run ?pool ~scale ~xs:rates fig in
        Scalanio.Figures.render ppf fig series;
        Fmt.pf ppf "@.")
      Scalanio.Figures.all
  in
  (match jobs with
  | 1 -> run_figures None
  | n ->
      let size = if n = 0 then None else Some n in
      Sio_sim.Domain_pool.with_pool ?size (fun pool -> run_figures (Some pool)));
  Fmt.pf ppf "done.@."
