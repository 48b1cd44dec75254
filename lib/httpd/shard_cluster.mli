(** SO_REUSEPORT-style accept steering and stats merge for an N-shard
    server cluster.

    A cluster is N independent shards — each owning its own listener,
    backend event loop, connection-table slice and {!Server_stats} —
    behind a deterministic steering function that assigns every
    connection of the global arrival schedule to exactly one shard.
    Steering is a pure pre-pass over the schedule (a function of
    policy, shard count, client population and seed), which is what
    makes a cluster run reproducible regardless of how the shards are
    simulated afterwards: sequentially or one {!Sio_sim.Domain_pool}
    domain per shard, the same bytes come out.

    The experiment composition (per-shard engines, hosts, servers,
    clients and the merged outcome) lives in [Sio_loadgen.Cluster];
    this module is the server-side model it steers with. *)

open Sio_sim

type policy =
  | Round_robin  (** connection i -> shard i mod N; perfectly balanced *)
  | Hash_tuple
      (** hash of the client 4-tuple mod N (the kernel's SO_REUSEPORT
          default); stateless but inherits client-population skew *)
  | Least_loaded
      (** pick the shard with the fewest estimated outstanding
          connections, lowest index on ties *)

val policy_name : policy -> string

type population = { tuples : int; skew : float }
(** The client population steering sees. [tuples = 0]: every
    connection arrives from a distinct ephemeral 4-tuple (benchmark
    default). [tuples = k > 0]: k distinct client endpoints, uniform
    when [skew <= 0], Zipf([skew]) popularity otherwise — the NAT/proxy
    scenario where tuple-hashing polarises. *)

val uniform_population : population

val route :
  policy:policy ->
  shards:int ->
  ?population:population ->
  ?est_service:Time.t ->
  seed:int ->
  Time.t array ->
  int array
(** [route ~policy ~shards ~seed arrivals] assigns each arrival (the
    global schedule, in non-decreasing time order) a shard index in
    [\[0, shards)]. [est_service] (default 50 ms) is the least-loaded
    balancer's completion estimate. Pure and deterministic. Raises
    [Invalid_argument] if [shards <= 0]. *)

val split_evenly : shards:int -> int -> int array
(** [split_evenly ~shards total] is the per-shard share of [total]
    (idle population, memory partition), remainders to low indices. *)

val shard_counts : shards:int -> int array -> int array
(** Connections per shard under an assignment from {!route}. *)

val merge_stats : Server_stats.t list -> Server_stats.t
(** Deterministic, order-insensitive merge of per-shard stats: counter
    sums plus an absolute-time reply-sampler merge
    ({!Server_stats.merge}). *)
