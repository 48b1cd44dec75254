open Sio_sim

type trigger = Level | Edge

type interest = {
  fd : int;
  mutable events : Pollmask.t;
  trigger : trigger;
  mutable queued : bool; (* already on the ready list *)
  mutable pending : Pollmask.t; (* accumulated edges (edge mode) *)
  mutable token : int; (* observer subscription *)
  self : interest option; (* [Some] of this record, for [interest_of] *)
}

(* The interest record is arena-native: it lives in the socket's
   {!Conn_arena} cold slot under this instance's attach key, so
   closing the connection drops it (and its observer registration)
   with the slot. The instance keeps only an fd -> socket-handle
   index, needed because epoll is keyed by descriptor and must keep
   reporting POLLNVAL for descriptors that vanish from the fd table
   while their interest is still registered. *)
type Conn_arena.cold += Ep_interest of interest

(* The ready list: a growable ring of fds, first in first out, that
   allocates nothing once grown. *)
module Fifo = struct
  type t = { mutable ring : int array; mutable head : int; mutable len : int }

  let create () = { ring = Array.make 64 0; head = 0; len = 0 }
  let is_empty q = q.len = 0
  let length q = q.len

  let clear q =
    q.head <- 0;
    q.len <- 0

  let add fd q =
    let cap = Array.length q.ring in
    if q.len = cap then begin
      let ring = Array.make (2 * cap) 0 in
      for i = 0 to q.len - 1 do
        ring.(i) <- q.ring.((q.head + i) mod cap)
      done;
      q.ring <- ring;
      q.head <- 0
    end;
    q.ring.((q.head + q.len) mod Array.length q.ring) <- fd;
    q.len <- q.len + 1

  let take q =
    let fd = q.ring.(q.head) in
    q.head <- (q.head + 1) mod Array.length q.ring;
    q.len <- q.len - 1;
    fd
end

type t = {
  host : Host.t;
  lookup : int -> Socket.t option;
  key : int; (* attach key naming this instance's interests *)
  watched : Socket.t Fd_map.t; (* fd -> socket at registration time *)
  ready : Fifo.t;
  sleepers : Wait_slot.queue; (* tasks sleeping inside epoll_wait *)
  slot : Wait_slot.t; (* epoll_wait results and the sleeping caller *)
  requeue : interest Ready_buffer.t; (* level-triggered results to re-arm *)
  mutable closed : bool;
}

let interest_of t socket =
  match Socket.attachment socket ~key:t.key with
  | Some (Ep_interest i) -> i.self
  | Some _ | None -> None

(* The hint path: O(1) append to the ready list. *)
let enqueue_ready t interest mask =
  let costs = t.host.Host.costs in
  ignore (Host.charge t.host costs.Cost_model.backmap_read_lock);
  interest.pending <- Pollmask.union interest.pending mask;
  if
    (not interest.queued)
    && Pollmask.intersects mask (Pollmask.union interest.events Pollmask.forced)
  then begin
    interest.queued <- true;
    Fifo.add interest.fd t.ready
  end;
  Wait_slot.wake_queue t.sleepers mask

let charge_ctl t =
  Host.enter_syscall t.host;
  ignore (Host.charge t.host t.host.Host.costs.Cost_model.interest_hash_op)

let ctl_add t ~fd ~events ?(trigger = Level) () =
  charge_ctl t;
  if Fd_map.mem t.watched fd then Error `Eexist
  else
    match t.lookup fd with
    | None -> Error `Ebadf
    | Some socket ->
        let rec interest =
          {
            fd;
            events;
            trigger;
            queued = false;
            pending = Pollmask.empty;
            token = 0;
            self = Some interest;
          }
        in
        interest.token <- Socket.subscribe socket (fun mask -> enqueue_ready t interest mask);
        Socket.attach socket ~key:t.key (Ep_interest interest);
        Fd_map.set t.watched fd socket;
        (* No lost startup events: if already ready, queue now. *)
        let st = Socket.status socket in
        if Pollmask.intersects st (Pollmask.union events Pollmask.forced) then begin
          interest.pending <- st;
          interest.queued <- true;
          Fifo.add fd t.ready
        end;
        Ok ()

let ctl_mod t ~fd ~events =
  charge_ctl t;
  match Fd_map.find t.watched fd with
  | None -> Error `Enoent
  | Some socket -> (
      match interest_of t socket with
      | None -> Ok () (* connection already freed; nothing to retarget *)
      | Some interest ->
          interest.events <- events;
          (* A newly interesting condition may already hold. *)
          let st = Socket.status socket in
          if
            (not interest.queued)
            && Pollmask.intersects st (Pollmask.union events Pollmask.forced)
          then begin
            interest.queued <- true;
            Fifo.add fd t.ready
          end;
          Ok ())

let ctl_del t ~fd =
  charge_ctl t;
  match Fd_map.find t.watched fd with
  | None -> Error `Enoent
  | Some socket ->
      (match interest_of t socket with
      | Some interest -> Socket.unsubscribe socket interest.token
      | None -> ());
      Socket.detach socket ~key:t.key;
      ignore (Fd_map.remove t.watched fd);
      (* A stale ready-list entry is dropped lazily at the next wait. *)
      Ok ()

(* Pop up to [max_events] valid ready entries into [results],
   validating each against the driver: O(ready), never O(interests). *)
let[@complexity "O(ready)"] harvest t ~max_events results =
  Ready_batch.clear results;
  Ready_buffer.clear t.requeue;
  while Ready_batch.length results < max_events && not (Fifo.is_empty t.ready) do
    let fd = Fifo.take t.ready in
    match Fd_map.find t.watched fd with
    | None -> () (* deleted while queued *)
    | Some registered -> (
        (match interest_of t registered with
        | Some interest -> interest.queued <- false
        | None -> ());
        match t.lookup fd with
        | None ->
            (* Descriptor closed while queued: report NVAL once. *)
            Ready_batch.push results fd Pollmask.pollnval
        | Some sock when Socket.id sock <> Socket.id registered ->
            (* fd reused by a different socket; epoll keys on the open
               file, so the old interest is dead. *)
            (match interest_of t registered with
            | Some interest -> Socket.unsubscribe registered interest.token
            | None -> ());
            Socket.detach registered ~key:t.key;
            ignore (Fd_map.remove t.watched fd)
        | Some sock -> (
            match interest_of t sock with
            | None -> ()
            | Some interest ->
                let st = Socket.driver_poll sock in
                let revents =
                  match interest.trigger with
                  | Level -> Pollmask.inter st (Pollmask.union interest.events Pollmask.forced)
                  | Edge ->
                      Pollmask.inter
                        (Pollmask.union interest.pending st)
                        (Pollmask.union interest.events Pollmask.forced)
                in
                interest.pending <- Pollmask.empty;
                if Pollmask.is_empty revents then () (* stale: readiness evaporated *)
                else begin
                  Ready_batch.push results fd revents;
                  (* Level-triggered and still ready: stays on the list. *)
                  if interest.trigger = Level then Ready_buffer.push t.requeue interest
                end))
  done;
  (* Re-arm latest-harvested first: the order decides the next
     harvest's, so it is visible in the simulation. *)
  for i = Ready_buffer.length t.requeue - 1 downto 0 do
    let interest = Ready_buffer.get t.requeue i in
    if not interest.queued then begin
      interest.queued <- true;
      Fifo.add interest.fd t.ready
    end
  done;
  Ready_batch.length results

let create ~host ~lookup =
  let t =
    {
      host;
      lookup;
      key = Socket.new_attach_key ();
      watched = Fd_map.create ~initial_capacity:64 ();
      ready = Fifo.create ();
      sleepers = Wait_slot.queue host;
      slot = Wait_slot.create ~host;
      requeue = Ready_buffer.create ();
      closed = false;
    }
  in
  Wait_slot.set_hooks t.slot
    ~rescan:(fun ~cap results -> harvest t ~max_events:cap results)
    ~sleep:(fun w -> Wait_slot.sleep_on_queue t.sleepers w)
    ~unsleep:(fun w -> Wait_slot.unsleep_queue t.sleepers w)
    ~copyout:(fun batch ->
      ignore
        (Host.charge host
           (Time.mul host.Host.costs.Cost_model.poll_copyout_per_ready
              (Ready_batch.length batch))))
    ();
  t

let[@complexity "O(ready)"] wait t ~max_events ~timeout ~k =
  if t.closed then invalid_arg "Epoll.wait: closed";
  if max_events <= 0 then invalid_arg "Epoll.wait: max_events must be positive";
  let slot = Wait_slot.enter t.slot ~cap:max_events ~k in
  if Wait_slot.must_sleep slot ~ready:(harvest t ~max_events (Wait_slot.batch slot)) ~timeout
  then Wait_slot.block slot

let interest_count t = Fd_map.length t.watched
let ready_count t = Fifo.length t.ready

let close t =
  if not t.closed then begin
    Fd_map.iter t.watched (fun _ socket ->
        (match interest_of t socket with
        | Some interest -> Socket.unsubscribe socket interest.token
        | None -> ());
        Socket.detach socket ~key:t.key);
    Fd_map.clear t.watched;
    Fifo.clear t.ready;
    t.closed <- true
  end
