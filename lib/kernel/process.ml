open Sio_sim

type resource = Sock of Socket.t | Dev of Devpoll.t

type t = {
  name : string;
  host : Host.t;
  fds : resource Fd_table.t;
  socks : Socket.t Fd_map.t;
      (* The socket descriptors of [fds] again, so a lookup returns a
         stored option instead of boxing a fresh one per syscall. *)
  rt_queue : Rt_signal.queue;
}

let create ~host ?(fd_limit = 1024) ?(rt_queue_limit = 1024) ~name () =
  {
    name;
    host;
    fds = Fd_table.create ~limit:fd_limit ();
    socks = Fd_map.create ~initial_capacity:64 ();
    rt_queue = Rt_signal.create_queue ~host ~limit:rt_queue_limit ();
  }

let name t = t.name
let host t = t.host
let fds t = t.fds
let rt_queue t = t.rt_queue

let lookup_socket t fd = Fd_map.find t.socks fd

let lookup_devpoll t fd =
  match Fd_table.find t.fds fd with
  | Some (Dev d) -> Some d
  | Some (Sock _) | None -> None

let install_socket t sock =
  match Fd_table.alloc t.fds (Sock sock) with
  | Ok fd ->
      Fd_map.set t.socks fd sock;
      Ok fd
  | Error `Emfile -> Error `Emfile

let close_fd t fd =
  ignore (Fd_map.remove t.socks fd);
  Fd_table.close t.fds fd
let open_fd_count t = Fd_table.count t.fds
