type interest = {
  fd : int;
  mutable events : Pollmask.t;
  mutable hint : Pollmask.t;
  mutable cached : Pollmask.t;
  mutable cache_valid : bool;
  mutable active : bool;
}

type t = { mutable buckets : interest list array; mutable count : int }

let create ?(initial_buckets = 8) () =
  if initial_buckets <= 0 then
    invalid_arg "Interest_table.create: bucket count must be positive";
  { buckets = Array.make initial_buckets []; count = 0 }

let length t = t.count
let bucket_count t = Array.length t.buckets

(* Fibonacci hashing of the fd; good spread for sequential fds. *)
let slot t fd = fd * 0x61c88647 land max_int mod Array.length t.buckets

let rec find_in fd = function
  | [] -> None
  | i :: rest -> if i.fd = fd then Some i else find_in fd rest

let find t fd = find_in fd t.buckets.(slot t fd)

let resize_if_needed t =
  if t.count >= 2 * Array.length t.buckets then begin
    let old = t.buckets in
    t.buckets <- Array.make (2 * Array.length old) [];
    Array.iter
      (fun chain ->
        List.iter
          (fun i ->
            let s = slot t i.fd in
            t.buckets.(s) <- i :: t.buckets.(s))
          chain)
      old
  end

let add_new t fd events =
  let s = slot t fd in
  t.buckets.(s) <-
    { fd; events; hint = Pollmask.empty; cached = Pollmask.empty; cache_valid = false;
      active = false }
    :: t.buckets.(s);
  t.count <- t.count + 1;
  resize_if_needed t

let set t ~fd ~events =
  match find t fd with
  | Some i ->
      i.events <- events;
      i.hint <- Pollmask.empty;
      i.cache_valid <- false;
      `Modified
  | None ->
      add_new t fd events;
      `Added

let set_solaris t ~fd ~events =
  match find t fd with
  | Some i ->
      i.events <- Pollmask.union i.events events;
      `Modified
  | None ->
      add_new t fd events;
      `Added

(* The chain without [fd]'s interest, other entries in order; a table
   holds at most one interest per fd. *)
let rec chain_remove fd = function
  | [] -> raise Not_found
  | i :: rest -> if i.fd = fd then rest else i :: chain_remove fd rest

let remove t fd =
  let s = slot t fd in
  match chain_remove fd t.buckets.(s) with
  | chain ->
      t.buckets.(s) <- chain;
      t.count <- t.count - 1;
      true
  | exception Not_found -> false

let iter t f = Array.iter (fun chain -> List.iter f chain) t.buckets

(* Top-level walkers rather than local closures: a walk allocates
   nothing. *)
let rec chain_while f x = function [] -> true | i :: rest -> f x i && chain_while f x rest

let rec buckets_while buckets f x b =
  b >= Array.length buckets
  || (chain_while f x buckets.(b) && buckets_while buckets f x (b + 1))

let iter_while t ~f x = ignore (buckets_while t.buckets f x 0)

let fold t ~init ~f =
  Array.fold_left (fun acc chain -> List.fold_left f acc chain) init t.buckets

let mean_bucket_occupancy t = float_of_int t.count /. float_of_int (Array.length t.buckets)
