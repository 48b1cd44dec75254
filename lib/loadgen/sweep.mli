(** Sweep points: one independent simulation per x value of a figure. *)

type point = { x : int; outcome : Experiment.outcome }
(** One measured point: the x value it was run at (a request rate, an
    idle count, a body size, a shard count, ... — the figure's axis
    says which) and the run's outcome. *)

val paper_rates : int list
(** 500, 550, ..., 1100 — the x axis of Figures 4-14. *)

val rates : from:int -> until:int -> step:int -> int list

val point_config :
  base:Experiment.config -> min_duration_s:int -> int -> Experiment.config
(** The base experiment at one request rate: a fresh seed
    [Rng.derive ~seed:base.seed rate], so per-point seeds are unrelated
    and distinct for distinct rates. [min_duration_s] raises the
    point's connection count when necessary so it generates load for at
    least that many seconds — down-scaled workloads stay measurable at
    high rates. *)

val check_seeds_unique : what:string -> (int * int) list -> unit
(** [check_seeds_unique ~what [(x, seed); ...]] raises
    [Invalid_argument] (naming [what] and both x values) if two points
    of one series would run with the same seed — a duplicated x value
    would otherwise silently measure the same simulation twice. *)
