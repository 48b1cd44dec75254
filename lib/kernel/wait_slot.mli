(** The blocking half of a readiness wait, owned by one notification
    instance (a /dev/poll open, an epoll instance, a persistent poll or
    select set).

    Every wait on the instance fills the same {!Ready_batch.t}, and
    the instance keeps one preallocated waiter, timer callback and
    completion callback, so a wait allocates nothing on the host beyond
    its wait-queue entries.

    The batch handed to the continuation is valid until the next wait
    on the same instance. A wait made while an earlier one on the
    instance has not delivered yet (a test polling twice before the
    clock moves, say) gets a slot of its own, so neither batch is
    overwritten under its reader. The continuation runs at the CPU's
    completion horizon, as every syscall return does.

    The owner supplies the mechanism-specific steps as hooks, each
    given the slot's batch (and the call's result cap) so they serve
    any slot of the instance:
    - [rescan] refills the batch after a wakeup and returns the ready
      count;
    - [sleep] and [unsleep] register and unregister the waiter on the
      instance's wait queues, charging their costs;
    - [expire] sets what the batch reports when the timeout fires
      (default: empty; select rescans);
    - [copyout] charges the per-result copy-out just before delivery. *)

open Sio_sim

type t

val create : host:Host.t -> t

val set_hooks :
  t ->
  rescan:(cap:int -> Ready_batch.t -> int) ->
  sleep:(Socket.waiter -> unit) ->
  unsleep:(Socket.waiter -> unit) ->
  ?expire:(cap:int -> Ready_batch.t -> unit) ->
  copyout:(Ready_batch.t -> unit) ->
  unit ->
  unit

val begin_call : t -> cap:int -> k:(Ready_batch.t -> unit) -> t
(** Start a wait returning at most [cap] results to [k]: the slot to
    use for this call (the instance's own, or a fresh one when the
    instance's is still outstanding), with its batch cleared for the
    owner's first scan. *)

val batch : t -> Ready_batch.t

val complete : t -> unit
(** The batch holds the result: charge copy-out and deliver it. *)

val block : t -> timeout:Time.t option -> unit
(** Nothing ready: sleep until a wakeup finds something or [timeout]
    expires ([None] sleeps forever). *)
