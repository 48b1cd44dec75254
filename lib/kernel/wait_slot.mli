(** The blocking half of a readiness wait: the one sleep, rescan and
    timeout path of select, poll, /dev/poll and epoll. A slot is owned
    by one notification instance (a /dev/poll open, an epoll instance,
    a persistent poll or select set) or by one one-shot poll() or
    select() call.

    Every wait entry runs the same steps: {!enter}, the mechanism's
    own first scan into {!batch}, {!must_sleep}, then — when it must
    sleep — any first-sleep setup of its own and {!block}.

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

val enter : t -> cap:int -> k:(Ready_batch.t -> unit) -> t
(** Enter the syscall ({!Host.enter_syscall}) for a wait returning at
    most [cap] results to [k]: the slot to use for this call (the
    instance's own, or a fresh one when the instance's is still
    outstanding), with its batch cleared for the owner's first scan. *)

val batch : t -> Ready_batch.t

val must_sleep : t -> ready:int -> timeout:Time.t option -> bool
(** After the first scan found [ready] results: when there are some,
    or [timeout] is zero, charge copy-out, deliver the batch and return
    [false]. Otherwise return [true]: the caller must {!block}, with
    [timeout] ([None] sleeps forever). *)

val block : t -> unit
(** Nothing ready: sleep until a wakeup finds something or the timeout
    given to {!must_sleep} expires. *)

(** {1 Shared sleep steps} *)

val sleep_on_sockets : Host.t -> Socket.t list -> n:int -> Socket.waiter -> unit
(** A poll or select sleep: register on every socket's wait queue,
    charging [n] registrations (poll charges one per interest, closed
    descriptors included). *)

val unsleep_sockets : Host.t -> Socket.t list -> n:int -> Socket.waiter -> unit
(** Undo {!sleep_on_sockets}, charging [n] unregistrations. *)

type queue
(** The wait queue of a notification instance (/dev/poll, epoll): its
    waits sleep on the queue and its driver hints wake it. *)

val queue : Host.t -> queue

val wake_queue : queue -> Pollmask.t -> unit
(** Wake the sleepers (all, or one, per the host's wake policy), each
    charged one wait-queue wake, handing them the edge's mask. *)

val sleep_on_queue : queue -> Socket.waiter -> unit
val unsleep_queue : queue -> Socket.waiter -> unit
