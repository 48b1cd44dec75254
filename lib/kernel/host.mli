(** Per-host kernel context.

    Bundles what every kernel subsystem on one machine shares: the
    simulation engine, the host CPU, the cost model, the wait-queue
    wake policy, and a set of operation counters that the tests and
    ablation benches read (e.g. "how many driver poll callbacks did
    this run perform with and without hints?"). *)

open Sio_sim

type counters = {
  mutable syscalls : int;
  mutable driver_polls : int;  (** device-driver poll callbacks issued *)
  mutable hint_skips : int;
      (** driver callbacks avoided thanks to a hint/cache *)
  mutable wait_queue_wakes : int;
  mutable rt_enqueued : int;
  mutable rt_dropped : int;  (** RT signals lost to queue overflow *)
  mutable rt_overflows : int;  (** SIGIO overflow notifications raised *)
  mutable softirqs : int;
  mutable accepts : int;
  mutable connections_refused : int;
}

type mem_pool
(** A kernel-memory budget shared across several hosts (the shard
    cluster's shared-reservation mode): every {!mem_reserve} on a
    pooled host is admitted against one atomic counter, so the
    combined footprint honours a single limit even when the hosts
    simulate on separate domains. Admission stays all-or-nothing per
    reservation. Note on determinism: concurrent shards racing within
    one reservation of the limit can admit different connections run
    to run; with the limit partitioned per shard (no pool) or with
    shards run sequentially, admission is fully deterministic. *)

val shared_mem_pool : limit:int -> mem_pool
(** Raises [Invalid_argument] if [limit < 0]. *)

val pool_used : mem_pool -> int
val pool_peak : mem_pool -> int

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  costs : Cost_model.t;
  wake_policy : Wait_queue.wake_policy;
  counters : counters;
  hints_by_default : bool;
      (** whether freshly created sockets' drivers participate in
          /dev/poll hinting; the hints ablation switches this off *)
  arena : Conn_arena.t;  (** struct-of-arrays socket state store *)
  mem_limit : int;
      (** modeled kernel-memory budget in bytes; [max_int] = unlimited *)
  mem_pool : mem_pool option;
      (** shared budget this host additionally reserves against *)
  mutable mem_used : int;  (** bytes currently reserved *)
  mutable mem_peak : int;  (** high-water mark of [mem_used] *)
}

val create :
  engine:Engine.t ->
  ?costs:Cost_model.t ->
  ?wake_policy:Wait_queue.wake_policy ->
  ?infinitely_fast:bool ->
  ?hints_by_default:bool ->
  ?mem_limit:int ->
  ?mem_pool:mem_pool ->
  unit ->
  t
(** Defaults: {!Cost_model.default}, [Wake_all] (Linux 2.2 behaviour),
    finite CPU, hinting drivers, unlimited kernel memory, no shared
    pool. With [mem_pool], a reservation must clear both the host's
    own [mem_limit] and the pool. *)

val now : t -> Time.t

val charge : t -> Time.t -> Time.t
(** Charges CPU work, returning its completion time. *)

val charge_run : t -> cost:Time.t -> (unit -> unit) -> unit
(** Charges CPU work and schedules the continuation at completion. *)

val enter_syscall : t -> unit
(** Counts one syscall and charges its entry cost. *)

val mem_reserve : t -> int -> bool
(** [mem_reserve t n] reserves [n] modeled kernel bytes; [false]
    (nothing reserved) when the budget would be exceeded. *)

val mem_release : t -> int -> unit

val fresh_counters : unit -> counters
