(* Shared scaffolding for kernel-level tests. *)

open Sio_sim
open Sio_kernel

let mk_engine ?(seed = 42) () = Engine.create ~seed ()

(* A host with zero costs: pure-semantics tests that should not depend
   on the cost model. *)
let mk_host ?(costs = Cost_model.zero) ?(wake_policy = Wait_queue.Wake_all) engine =
  Host.create ~engine ~costs ~wake_policy ()

let mk_costed_host engine = Host.create ~engine ()

let mask = Alcotest.testable Pollmask.pp Pollmask.equal

let run_until_quiet engine = Engine.run engine

(* Drive a fully wired client/server pair for TCP-level tests. *)
type rig = {
  engine : Engine.t;
  host : Host.t;
  net : Sio_net.Network.t;
  proc : Process.t;
  listen_fd : int;
  listener : Socket.t;
}

let mk_rig ?(costs = Cost_model.zero) ?(fd_limit = 1024) ?(backlog = 128) () =
  let engine = mk_engine () in
  let host = mk_host ~costs engine in
  let net = Sio_net.Network.create ~engine () in
  let proc = Process.create ~host ~fd_limit ~name:"server" () in
  let listen_fd =
    match Kernel.listen proc ~backlog with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "listen failed"
  in
  let listener =
    match Process.lookup_socket proc listen_fd with
    | Some s -> s
    | None -> Alcotest.fail "listener not installed"
  in
  { engine; host; net; proc; listen_fd; listener }

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "expected Ok"

(* Wait continuations receive the instance's reusable batch, valid
   until the next wait: tests snapshot it as (fd, mask) pairs. *)
let pairs k batch = k (Ready_batch.to_list batch)
