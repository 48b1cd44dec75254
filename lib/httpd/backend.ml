open Sio_sim
open Sio_kernel

type kind =
  | Select
  | Poll
  | Devpoll of { use_mmap : bool; max_events : int }
  | Epoll of { max_events : int }
  | Rt_signals of { signo : int; batch : int }

type impl = {
  name : string;
  add : int -> Pollmask.t -> unit;
  modify : int -> Pollmask.t -> unit;
  remove : int -> unit;
  wait : timeout:Time.t option -> k:(Ready_batch.t -> unit) -> unit;
}

type t = impl

let name t = t.name
let add t fd mask = t.add fd mask
let modify t fd mask = t.modify fd mask
let remove t fd = t.remove fd
let wait t ~timeout ~k = t.wait ~timeout ~k

let poll proc =
  (* User-space interest set; insertion order preserved so the pollfd
     array looks like thttpd's (listener first, then connections).
     Kept persistent so the host-side scan is O(active); charged costs
     and results are identical to rebuilding the list every call. *)
  let set =
    Poll.Pset.create
      ~host:(Process.host proc)
      ~lookup:(Process.lookup_socket proc)
      ()
  in
  {
    name = "poll";
    add = (fun fd mask -> Poll.Pset.set set fd mask);
    modify = (fun fd mask -> if Poll.Pset.mem set fd then Poll.Pset.set set fd mask);
    remove = (fun fd -> Poll.Pset.remove set fd);
    wait = (fun ~timeout ~k -> Poll.Pset.wait_set set ~timeout ~k);
  }

let devpoll ?(use_mmap = true) ?(max_events = 64) proc =
  match Kernel.devpoll_open proc with
  | Error (`Emfile | `Ebadf | `Eagain | `Einval) -> Error `Emfile
  | Ok dpfd ->
      if use_mmap then
        ignore (Kernel.devpoll_alloc_map proc dpfd ~slots:max_events);
      let write fd mask = ignore (Kernel.devpoll_write_one proc dpfd fd mask) in
      Ok
        {
          name = (if use_mmap then "devpoll" else "devpoll-nommap");
          add = write;
          modify = write;
          remove = (fun fd -> write fd Pollmask.pollremove);
          wait =
            (fun ~timeout ~k ->
              ignore (Kernel.devpoll_wait proc dpfd ~max_results:max_events ~timeout ~k));
        }

let select proc =
  let set =
    Select.Sset.create
      ~host:(Process.host proc)
      ~lookup:(Process.lookup_socket proc)
      ()
  in
  let add fd mask = Select.Sset.add set fd mask in
  {
    name = "select";
    add;
    modify = add;
    remove = (fun fd -> Select.Sset.remove set fd);
    wait = (fun ~timeout ~k -> Select.Sset.wait_sset set ~timeout ~k);
  }

let epoll ?(max_events = 64) proc =
  let ep = Epoll.create ~host:(Process.host proc) ~lookup:(Process.lookup_socket proc) in
  {
    name = "epoll";
    add =
      (fun fd mask ->
        match Epoll.ctl_add ep ~fd ~events:mask () with
        | Ok () -> ()
        | Error `Eexist -> ignore (Epoll.ctl_mod ep ~fd ~events:mask)
        | Error `Ebadf -> ());
    modify = (fun fd mask -> ignore (Epoll.ctl_mod ep ~fd ~events:mask));
    remove = (fun fd -> ignore (Epoll.ctl_del ep ~fd));
    wait = (fun ~timeout ~k -> Epoll.wait ep ~max_events ~timeout ~k);
  }

let rt_signals ~signo ~batch proc =
  if signo < Rt_signal.sigrtmin then invalid_arg "Backend.rt_signals: signo below SIGRTMIN";
  if batch <= 0 then invalid_arg "Backend.rt_signals: batch must be positive";
  {
    name = (if batch > 1 then "rtsig-batched" else "rtsig");
    (* The signal carries the ready band, so the mask is not stored;
       F_SETSIG already reports every edge, so there is nothing to
       modify. *)
    add = (fun fd _ -> ignore (Kernel.fcntl_setsig proc fd ~signo));
    modify = (fun _ _ -> ());
    remove = (fun fd -> ignore (Kernel.fcntl_clearsig proc fd));
    wait = (fun ~timeout ~k -> Kernel.sigtimedwait4 proc ~max:batch ~timeout ~k);
  }

let create kind proc =
  match kind with
  | Select -> Ok (select proc)
  | Poll -> Ok (poll proc)
  | Devpoll { use_mmap; max_events } -> devpoll ~use_mmap ~max_events proc
  | Epoll { max_events } -> Ok (epoll ~max_events proc)
  | Rt_signals { signo; batch } -> Ok (rt_signals ~signo ~batch proc)
