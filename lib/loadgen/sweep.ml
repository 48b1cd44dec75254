open Sio_sim

type point = { x : int; outcome : Experiment.outcome }

let rates ~from ~until ~step =
  if step <= 0 then invalid_arg "Sweep.rates: step must be positive";
  let rec go r acc = if r > until then List.rev acc else go (r + step) (r :: acc) in
  go from []

let paper_rates = rates ~from:500 ~until:1100 ~step:50

let point_config ~base ~min_duration_s rate =
  let total =
    Stdlib.max base.Experiment.workload.Workload.total_connections (min_duration_s * rate)
  in
  let workload =
    {
      base.Experiment.workload with
      Workload.request_rate = rate;
      total_connections = total;
    }
  in
  {
    base with
    Experiment.workload;
    seed = Rng.derive ~seed:base.Experiment.seed rate;
  }

let check_seeds_unique ~what seeds =
  let seen = Hashtbl.create (List.length seeds) in
  List.iter
    (fun (x, seed) ->
      match Hashtbl.find_opt seen seed with
      | Some other ->
          invalid_arg
            (Printf.sprintf "%s: x = %d and %d derive the same seed %d (duplicate x?)"
               what other x seed)
      | None -> Hashtbl.replace seen seed x)
    seeds
