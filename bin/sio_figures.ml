(* Regenerate the paper's figures (and the extension experiments) from
   the simulation. `sio_figures list` shows what is available;
   `sio_figures all` reproduces the whole evaluation section. *)

open Cmdliner
open Sio_loadgen
module Figures = Scalanio.Figures

let rates_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ from; until; step ] -> (
        match (int_of_string_opt from, int_of_string_opt until, int_of_string_opt step) with
        | Some f, Some u, Some st when st > 0 && u >= f ->
            Ok (Sweep.rates ~from:f ~until:u ~step:st)
        | _, _, _ -> Error (`Msg "expected FROM:UNTIL:STEP with positive step"))
    | _ -> Error (`Msg "expected FROM:UNTIL:STEP")
  in
  let print ppf rates = Fmt.pf ppf "%a" Fmt.(list ~sep:comma int) rates in
  Arg.conv (parse, print)

let list_figures () =
  List.iter (fun f -> Fmt.pr "%-16s %s@." f.Figures.id f.Figures.title) Figures.all;
  List.iter
    (fun f ->
      Fmt.pr "%-16s %s (not in 'all'; request explicitly)@." f.Figures.id f.Figures.title)
    Figures.heavy

let sanitize label =
  String.map (fun c -> if c = ' ' || c = '/' || c = '=' then '-' else c) label

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fmt.epr "wrote %s@." path

(* One CSV per series, plus the figure's JSON sidecar: the CSVs hold
   only deterministic columns; host-side context (RSS) is JSON only. *)
let write_outputs dir ~seed ~scale fig series =
  List.iter
    (fun s ->
      write_file
        (Filename.concat dir (Printf.sprintf "%s-%s.csv" fig.Figures.id (sanitize s.Report.label)))
        (Report.csv_of_series ~axis:fig.Figures.axis fig.Figures.columns s))
    series;
  write_file
    (Filename.concat dir (fig.Figures.id ^ ".json"))
    (Figures.json ~seed ~scale fig series)

let with_jobs jobs f =
  match jobs with
  | 1 -> f None
  | n ->
      let size = if n = 0 then None else Some n in
      Sio_sim.Domain_pool.with_pool ?size (fun pool -> f (Some pool))

(* A name's figures: 'all' is the rate-axis catalogue, and
   shard-scaling brings its steering ablation along. *)
let resolve = function
  | "all" -> Some Figures.all
  | "shard-scaling" -> Some [ Figures.shard_scaling; Figures.shard_ablation ]
  | n -> Option.map (fun f -> [ f ]) (Figures.find n)

let run_figures names scale seed rates quiet csv_dir jobs =
  if jobs < 0 then begin
    Fmt.epr "sio_figures: --jobs must be >= 0 (got %d)@." jobs;
    exit 1
  end;
  let names = if names = [] then [ "all" ] else names in
  match List.find_opt (fun n -> resolve n = None) names with
  | Some n ->
      Fmt.epr "unknown figure %S; try `sio_figures list`@." n;
      1
  | None -> (
      let figures = List.concat_map (fun n -> Option.get (resolve n)) names in
      match List.find_opt (fun f -> f.Figures.axis <> "rate") figures with
      | Some f when rates <> None ->
          Fmt.epr "sio_figures: --rates sets request rates, but %s's x axis is %s@."
            f.Figures.id f.Figures.axis;
          1
      | _ ->
          with_jobs jobs (fun pool ->
              List.iter
                (fun fig ->
                  let on_point ~label p =
                    let m = p.Sweep.outcome.Experiment.metrics in
                    if not quiet then
                      Fmt.epr "  [%s] %s %s=%d avg=%.1f err=%.1f%%@." fig.Figures.id label
                        fig.Figures.axis p.Sweep.x m.Metrics.reply_rate_avg
                        m.Metrics.error_percent
                  in
                  let series = Figures.run ?pool ~scale ~seed ?xs:rates ~on_point fig in
                  Figures.render Fmt.stdout fig series;
                  Option.iter (fun dir -> write_outputs dir ~seed ~scale fig series) csv_dir;
                  Fmt.pr "@.")
                figures);
          0)

let names_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FIGURE"
        ~doc:"Figure ids (fig4..fig14, hybrid, ...), 'all', or 'list'.")

let scale_arg =
  Arg.(
    value & opt float 0.2
    & info [ "scale" ] ~docv:"F"
        ~doc:"Fraction of the paper's 35000 connections per point (1.0 = full scale).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let rates_arg =
  Arg.(
    value & opt (some rates_conv) None
    & info [ "rates" ] ~docv:"FROM:UNTIL:STEP" ~doc:"Override the swept request rates (rate-axis figures only).")

let quiet_arg = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-point progress.")

let csv_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "csv" ] ~docv:"DIR" ~doc:
            "Also write each series as a CSV file, and each figure's JSON \
             sidecar, into $(docv).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the points of each sweep on $(docv) domains in parallel \
           (results are bit-identical to the sequential run). 0 means \
           one less than the machine's recommended domain count; 1 \
           (the default) stays sequential.")

let main names scale seed rates quiet csv_dir jobs =
  match names with
  | [ "list" ] ->
      list_figures ();
      0
  | _ -> run_figures names scale seed rates quiet csv_dir jobs

let cmd =
  let doc = "regenerate the figures of Provos & Lever (2000)" in
  Cmd.v
    (Cmd.info "sio_figures" ~doc)
    Term.(
      const main $ names_arg $ scale_arg $ seed_arg $ rates_arg $ quiet_arg $ csv_arg
      $ jobs_arg)

let () = exit (Cmd.eval' cmd)
