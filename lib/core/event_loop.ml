open Sio_sim
open Sio_kernel

type watch = { events : Pollmask.t; callback : Pollmask.t -> unit }

type t = {
  proc : Process.t;
  backend : Sio_httpd.Backend.t;
  watches : watch Fd_map.t;
  mutable running : bool;
  mutable stopped : bool;
  mutable overflow_recoveries : int;
  mutable periodics : Event_queue.handle list;
}

let create ~proc ~backend =
  match Sio_httpd.Backend.create backend proc with
  | Error `Emfile -> Error `Emfile
  | Ok backend ->
      Ok
        {
          proc;
          backend;
          watches = Fd_map.create ~initial_capacity:64 ();
          running = false;
          stopped = false;
          overflow_recoveries = 0;
          periodics = [];
        }

let backend_name t = Sio_httpd.Backend.name t.backend

let watch t ~fd ~events callback =
  Fd_map.set t.watches fd { events; callback };
  Sio_httpd.Backend.add t.backend fd events

let unwatch t fd = if Fd_map.remove t.watches fd then Sio_httpd.Backend.remove t.backend fd

let watched_count t = Fd_map.length t.watches

let engine t = (Process.host t.proc).Host.engine

let add_timer t ~after f = Engine.after (engine t) after f

let add_periodic t ~every f =
  if every <= 0 then invalid_arg "Event_loop.add_periodic: period must be positive";
  let rec arm () =
    let h =
      Engine.after (engine t) every (fun () ->
          if not t.stopped then begin
            f ();
            arm ()
          end)
    in
    t.periodics <- h :: t.periodics
  in
  arm ()

let dispatch t fd mask =
  match Fd_map.find t.watches fd with
  | Some w -> w.callback mask
  | None -> () (* stale event for an unwatched descriptor *)

let dispatch_batch t batch =
  for i = 0 to Ready_batch.length batch - 1 do
    dispatch t (Ready_batch.fd batch i) (Ready_batch.mask batch i)
  done

(* Recovery poll over the entire watch set: the paper's prescription
   after an RT-signal queue overflow. Fd_map iterates in ascending fd
   order, so the poll (and therefore dispatch) order is a function of
   the watch set alone — no snapshot-and-sort needed. *)
let recovery_poll t ~k =
  t.overflow_recoveries <- t.overflow_recoveries + 1;
  let interests =
    List.rev (Fd_map.fold t.watches ~init:[] ~f:(fun acc fd w -> (fd, w.events) :: acc))
  in
  Kernel.poll t.proc ~interests ~timeout:(Some Time.zero) ~k:(fun batch ->
      dispatch_batch t batch;
      k ())

(* Only an RT-signal backend reports an overflow: flush the queue,
   then one recovery poll finds whatever the dropped signals named. *)
let rec loop t =
  if not t.stopped then
    Sio_httpd.Backend.wait t.backend ~timeout:(Some (Time.s 10)) ~k:(fun batch ->
        if not t.stopped then begin
          (* An RT signal's band is its event mask. *)
          dispatch_batch t batch;
          if Ready_batch.overflowed batch then begin
            ignore (Kernel.flush_signals t.proc);
            recovery_poll t ~k:(fun () -> Kernel.yield t.proc (fun () -> loop t))
          end
          else Kernel.yield t.proc (fun () -> loop t)
        end)

let run t =
  if t.running then invalid_arg "Event_loop.run: already running";
  t.running <- true;
  loop t

let stop t =
  t.stopped <- true;
  List.iter (fun h -> Engine.cancel (engine t) h) t.periodics;
  t.periodics <- []

let overflow_recoveries t = t.overflow_recoveries
