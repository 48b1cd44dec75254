(** Timed, cancellable events.

    Each scheduled event gets a generation-stamped slot in a set of
    parallel arrays (time, scheduling rank, action), and a binary heap
    of slot indices orders them, FIFO among events scheduled for the
    same instant. Cancellation is lazy: a cancelled event's action is
    released at once but its heap entry stays until its time comes.
    Cancel and pending checks are O(1) array reads. Scheduling,
    peeking and popping allocate nothing once the arrays have grown to
    the queue's working size. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. A handle goes
    stale the moment its event fires or is cancelled; stale handles
    are harmless (cancel is a no-op, {!is_pending} answers [false]). *)

val none : handle
(** A handle that is never pending: a placeholder for "no timer". *)

val create : ?initial_capacity:int -> unit -> t
(** [initial_capacity] (default 16) pre-sizes the slot arrays for
    queues whose population is known in advance. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule q ~at f] arranges for [f ()] to run when the queue is
    advanced to time [at]. Events at equal times fire in scheduling
    order. Raises [Invalid_argument] if [at] is negative. *)

val cancel : t -> handle -> unit
(** [cancel q h] prevents the event from firing and drops the queue's
    reference to its action. Cancelling an event that already fired
    (or was already cancelled) is a no-op. *)

val is_pending : t -> handle -> bool
(** [is_pending q h] is [true] iff the event is still scheduled: not
    cancelled and not yet fired. *)

val no_event : Time.t
(** The sentinel {!peek_time} returns for an empty queue (negative, so
    it compares below every schedulable time). *)

val peek_time : t -> Time.t
(** Time of the earliest live event, skipping cancelled ones, or
    {!no_event}. *)

val pop : t -> (unit -> unit)
(** Removes the earliest live event and returns its action; the queue
    keeps no reference to it. Raises [Invalid_argument] when the queue
    is empty. *)

val length : t -> int
(** Live (non-cancelled) events still queued. *)

val is_empty : t -> bool
