(** POSIX Real-Time signal event delivery.

    Models the Linux 2.3 mechanism the paper evaluates: an application
    binds a signal number to a descriptor with fcntl(F_SETSIG); the
    kernel then queues a siginfo carrying the fd and the poll band on
    every I/O completion. The queue is a limited resource (1024
    entries by default): on overflow the kernel drops the signal and
    raises SIGIO exactly once, and the application must recover with
    poll(). Delivery order is by signal number first (SIGIO, being a
    classic low-numbered signal, jumps ahead of all RT signals), FIFO
    within a number.

    Two warts of the real interface are preserved because the paper's
    discussion hinges on them: signals for a descriptor stay queued
    after the descriptor is closed (stale events), and dequeuing is
    one-event-per-syscall via {!sigwaitinfo} — {!sigtimedwait4}
    implements the paper's proposed batching extension. *)

open Sio_sim

type siginfo = { signo : int; fd : int; band : Pollmask.t }

type delivery =
  | Signal of siginfo
  | Overflow  (** SIGIO: the queue overflowed; poll() to recover *)

type queue

val sigrtmin : int
(** 32, as on Linux 2.2/2.3. *)

val create_queue : host:Host.t -> ?limit:int -> unit -> queue
(** Default limit 1024 (the kernel's default the paper quotes).
    Raises [Invalid_argument] if the limit is not positive. *)

val set_signal : queue -> socket:Socket.t -> fd:int -> signo:int -> unit
(** fcntl(fd, F_SETSIG, signo): subsequent status changes on [socket]
    enqueue a siginfo tagged with [fd]. Re-binding replaces the
    previous binding. Raises [Invalid_argument] if [signo] is below
    {!sigrtmin}. *)

val clear_signal : queue -> socket:Socket.t -> fd:int -> unit
(** fcntl(fd, F_SETSIG, 0): stop queueing for this descriptor. Queued
    signals remain (stale-event semantics). *)

val pending : queue -> int
(** Queued RT signals (not counting a pending SIGIO). *)

val sigio_pending : queue -> bool
val limit : queue -> int

val sigwaitinfo : queue -> k:(delivery -> unit) -> unit
(** Dequeue exactly one delivery, blocking until one is available.
    Charges one syscall plus one dequeue. *)

val sigtimedwait4 :
  queue -> max:int -> timeout:Time.t option -> k:(Ready_batch.t -> unit) -> unit
(** The paper's proposed batching syscall: dequeue up to [max]
    deliveries in one syscall. Blocks like {!sigwaitinfo} when the
    queue is empty; [Some 0] timeout polls. The batch holds one
    (fd, band) entry per RT signal in delivery order; a SIGIO ahead
    of them sets {!Ready_batch.overflowed} and takes one of the [max]
    places. The batch is the queue's own, valid until the next
    sigtimedwait4 (a caller whose return overlaps a pending one gets
    a batch of its own). *)

val flush : queue -> int
(** Set the handler to SIG_DFL and back: discards everything queued
    (including a pending SIGIO), returning the number of RT signals
    dropped. This is the first step of the paper's overflow
    recovery. *)
