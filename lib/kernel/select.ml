open Sio_sim

type result = { readable : Fd_set.t; writable : Fd_set.t; except : Fd_set.t }

(* select copies three bitmaps in and out and walks descriptors
   0..nfds-1 regardless of membership; we charge the bitmap walk at a
   third of the pollfd copy cost per fd (three dense bits vs an 8-byte
   struct) plus the driver callback for members. *)
let scan_cost ~host ~nfds =
  let costs = host.Host.costs in
  Time.mul (Time.div costs.Cost_model.poll_copyin_per_fd 3) nfds

let[@complexity "O(interests)"] scan ~host ~lookup ~read ~write ~except =
  let nfds =
    1 + Stdlib.max (Fd_set.max_fd read) (Stdlib.max (Fd_set.max_fd write) (Fd_set.max_fd except))
  in
  ignore (Host.charge host (scan_cost ~host ~nfds));
  let r = Fd_set.create () and w = Fd_set.create () and e = Fd_set.create () in
  let ready = ref 0 in
  let consult fd =
    match lookup fd with
    | None ->
        (* Bad descriptor: report as exceptional condition. *)
        if Fd_set.mem except fd || Fd_set.mem read fd || Fd_set.mem write fd then begin
          Fd_set.set e fd;
          incr ready
        end;
        Pollmask.empty
    | Some sock -> Socket.driver_poll sock
  in
  for fd = 0 to nfds - 1 do
    if Fd_set.mem read fd || Fd_set.mem write fd || Fd_set.mem except fd then begin
      let st = consult fd in
      if
        Fd_set.mem read fd
        && Pollmask.intersects st
             (Pollmask.union Pollmask.readable Pollmask.pollhup)
      then begin
        Fd_set.set r fd;
        incr ready
      end;
      if Fd_set.mem write fd && Pollmask.intersects st Pollmask.pollout then begin
        Fd_set.set w fd;
        incr ready
      end;
      if
        Fd_set.mem except fd
        && Pollmask.intersects st (Pollmask.union Pollmask.pollerr Pollmask.pollpri)
      then begin
        Fd_set.set e fd;
        incr ready
      end
    end
  done;
  ({ readable = r; writable = w; except = e }, !ready)

let[@complexity "O(interests)"] select ~host ~lookup ~read ~write ~except ~timeout ~k =
  (* A one-shot call with a slot of its own, as [Poll.wait]: [k] gets
     the last scan's bitmaps, and the slot's batch stays empty. A
     sleep registers on every member's socket; a wakeup rescans, and
     so does the timeout. *)
  let found = ref None in
  let rescan ~cap:_ _ =
    let result, ready = scan ~host ~lookup ~read ~write ~except in
    found := Some result;
    ready
  in
  let sockets = ref [] in
  let slot = Wait_slot.create ~host in
  Wait_slot.set_hooks slot ~rescan
    ~sleep:(fun w -> Wait_slot.sleep_on_sockets host !sockets ~n:(List.length !sockets) w)
    ~unsleep:(fun w -> Wait_slot.unsleep_sockets host !sockets ~n:(List.length !sockets) w)
    ~expire:(fun ~cap batch -> ignore (rescan ~cap batch))
    ~copyout:ignore ();
  let slot = Wait_slot.enter slot ~cap:max_int ~k:(fun _ -> Option.iter k !found) in
  let first, ready = scan ~host ~lookup ~read ~write ~except in
  found := Some first;
  if Wait_slot.must_sleep slot ~ready ~timeout then begin
    (* Each member once: dedup against the bitmaps already in hand. *)
    let fds = ref [] in
    Fd_set.iter read (fun fd -> fds := fd :: !fds);
    Fd_set.iter write (fun fd -> if not (Fd_set.mem read fd) then fds := fd :: !fds);
    Fd_set.iter except (fun fd ->
        if not (Fd_set.mem read fd || Fd_set.mem write fd) then fds := fd :: !fds);
    sockets := List.filter_map lookup !fds;
    Wait_slot.block slot
  end

(* A stateful select set, mirroring how thttpd actually uses select():
   the same three bitmaps (except aliased to read) are re-submitted on
   every loop iteration. Kept between calls so the host-side walk is
   O(active) while charged costs, counters, and the returned bitmaps
   stay identical to [select] over the same bitmaps. *)
module Sset = struct
  type member = { fd : int; mutable bound : Socket.watch }

  type sset = {
    host : Host.t;
    lookup : int -> Socket.t option;
    read : Fd_set.t; (* also the except set, as thttpd passes it *)
    write : Fd_set.t;
    members : member Fd_map.t; (* every fd with a read or write bit *)
    active : member Fd_map.t;
        (* Conservative superset of members whose probe might set a
           result bit. Everything outside it was last seen reporting
           nothing on a live, watcher-bound socket, so its probe is
           exactly one driver callback with no bits set. *)
    slot : Wait_slot.t; (* select() results and the sleeping caller *)
    mutable sockets : Socket.t list; (* slept on by the select() in progress *)
  }

  let remove s fd =
    Fd_set.clear s.read fd;
    Fd_set.clear s.write fd;
    (match Fd_map.find s.members fd with
    | Some m ->
        Socket.unwatch m.bound;
        ignore (Fd_map.remove s.members fd)
    | None -> ());
    ignore (Fd_map.remove s.active fd)

  (* Same bit discipline as thttpd's backend: readable interest sets
     the read bit, POLLOUT interest the write bit; a mask with neither
     leaves the fd out of the set entirely. Any change re-activates
     the fd (its next probe may answer differently). *)
  let add s fd mask =
    if Pollmask.intersects mask Pollmask.readable then Fd_set.set s.read fd
    else Fd_set.clear s.read fd;
    if Pollmask.intersects mask Pollmask.pollout then Fd_set.set s.write fd
    else Fd_set.clear s.write fd;
    if Fd_set.mem s.read fd || Fd_set.mem s.write fd then begin
      let m =
        match Fd_map.find s.members fd with
        | Some m -> m
        | None ->
            let m = { fd; bound = None } in
            Fd_map.set s.members fd m;
            m
      in
      Fd_map.set s.active fd m
    end
    else remove s fd

  let mem s fd = Fd_map.mem s.members fd
  let active_fds s = List.map fst (Fd_map.to_list s.active)

  (* O(active) scan: the bitmap-walk cost over 0..nfds-1 was already
     analytic; idle members are charged one batched driver callback
     each (they all have live sockets, else the except bit would have
     kept them active), active members run the per-fd body of [scan]
     verbatim, in the same ascending-fd order. *)
  let[@complexity "O(active)"] scan_sset s =
    let host = s.host in
    let costs = host.Host.costs in
    let counters = host.Host.counters in
    let read = s.read and write = s.write in
    let except = s.read in
    let nfds =
      1
      + Stdlib.max (Fd_set.max_fd read)
          (Stdlib.max (Fd_set.max_fd write) (Fd_set.max_fd except))
    in
    ignore (Host.charge host (scan_cost ~host ~nfds));
    let r = Fd_set.create () and w = Fd_set.create () and e = Fd_set.create () in
    let ready = ref 0 in
    let idle = Fd_map.length s.members - Fd_map.length s.active in
    if idle > 0 then begin
      ignore
        (Cost_model.charge_batch host.Host.cpu ~cost:costs.Cost_model.driver_poll_callback
           ~count:idle);
      counters.Host.driver_polls <- counters.Host.driver_polls + idle
    end;
    Fd_map.iter s.active (fun fd m ->
        let any = ref false in
        (match s.lookup fd with
        | None ->
            if Fd_set.mem except fd || Fd_set.mem read fd || Fd_set.mem write fd then begin
              Fd_set.set e fd;
              incr ready;
              any := true
            end
        | Some sock ->
            m.bound <- Socket.rewatch m.bound sock s.active fd m;
            let st = Socket.driver_poll sock in
            if
              Fd_set.mem read fd
              && Pollmask.intersects st (Pollmask.union Pollmask.readable Pollmask.pollhup)
            then begin
              Fd_set.set r fd;
              incr ready;
              any := true
            end;
            if Fd_set.mem write fd && Pollmask.intersects st Pollmask.pollout then begin
              Fd_set.set w fd;
              incr ready;
              any := true
            end;
            if
              Fd_set.mem except fd
              && Pollmask.intersects st (Pollmask.union Pollmask.pollerr Pollmask.pollpri)
            then begin
              Fd_set.set e fd;
              incr ready;
              any := true
            end;
            if not !any then ignore (Fd_map.remove s.active fd)));
    ({ readable = r; writable = w; except = e }, !ready)

  (* The result bitmaps as one event per descriptor, in the order
     thttpd's select loop hands them to its handlers: readable fds
     descending, then writable, then exceptional, each a POLLIN,
     POLLOUT or POLLERR event — except that the lowest readable fd, when
     it is also the first fd of the next non-empty group, is one
     merged event there. Built ascending and reversed in place. *)
  let fill batch ~read ~write ~except =
    Ready_batch.clear batch;
    Fd_set.iter except (fun fd -> Ready_batch.push batch fd Pollmask.pollerr);
    Fd_set.iter write (fun fd -> Ready_batch.push batch fd Pollmask.pollout);
    Fd_set.iter read (fun fd ->
        let last = Ready_batch.length batch - 1 in
        if last >= 0 && Ready_batch.fd batch last = fd then
          Ready_batch.set_mask batch last
            (Pollmask.union (Ready_batch.mask batch last) Pollmask.pollin)
        else Ready_batch.push batch fd Pollmask.pollin);
    Ready_batch.reverse batch

  let rescan s ~cap:_ batch =
    let r, ready = scan_sset s in
    fill batch ~read:r.readable ~write:r.writable ~except:r.except;
    ready

  let create ~host ~lookup () =
    let s =
      {
        host;
        lookup;
        read = Fd_set.create ();
        write = Fd_set.create ();
        members = Fd_map.create ~initial_capacity:64 ();
        active = Fd_map.create ~initial_capacity:64 ();
        slot = Wait_slot.create ~host;
        sockets = [];
      }
    in
    (* select() reports what a final scan finds when the timeout
       expires, rather than nothing. *)
    Wait_slot.set_hooks s.slot
      ~rescan:(fun ~cap batch -> rescan s ~cap batch)
      ~sleep:(fun w -> Wait_slot.sleep_on_sockets host s.sockets ~n:(List.length s.sockets) w)
      ~unsleep:(fun w ->
        Wait_slot.unsleep_sockets host s.sockets ~n:(List.length s.sockets) w)
      ~expire:(fun ~cap batch -> ignore (rescan s ~cap batch))
      ~copyout:ignore ();
    s

  (* select() over the persistent set: charge-for-charge the same call
     sequence as [select], including the rescan at timeout expiry. *)
  let[@complexity "O(interests)"] wait_sset s ~timeout ~k =
    let slot = Wait_slot.enter s.slot ~cap:max_int ~k in
    let first, ready = scan_sset s in
    fill (Wait_slot.batch slot) ~read:first.readable ~write:first.writable
      ~except:first.except;
    if Wait_slot.must_sleep slot ~ready ~timeout then begin
      s.sockets <-
        Fd_map.fold s.members ~init:[] ~f:(fun acc fd _ ->
            match s.lookup fd with Some sock -> sock :: acc | None -> acc);
      Wait_slot.block slot
    end
end
