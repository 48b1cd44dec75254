type t = {
  mutable fds : int array;
  mutable masks : Pollmask.t array;
  mutable len : int;
  mutable overflow : bool;
}

let create ?(initial_capacity = 16) () =
  let cap = Stdlib.max 1 initial_capacity in
  { fds = Array.make cap 0; masks = Array.make cap Pollmask.empty; len = 0; overflow = false }

let clear b =
  b.len <- 0;
  b.overflow <- false

let push b fd mask =
  let cap = Array.length b.fds in
  if b.len = cap then begin
    let fds = Array.make (2 * cap) 0 and masks = Array.make (2 * cap) Pollmask.empty in
    Array.blit b.fds 0 fds 0 cap;
    Array.blit b.masks 0 masks 0 cap;
    b.fds <- fds;
    b.masks <- masks
  end;
  b.fds.(b.len) <- fd;
  b.masks.(b.len) <- mask;
  b.len <- b.len + 1

let length b = b.len

let fd b i =
  if i < 0 || i >= b.len then invalid_arg "Ready_batch.fd: index out of bounds";
  b.fds.(i)

let mask b i =
  if i < 0 || i >= b.len then invalid_arg "Ready_batch.mask: index out of bounds";
  b.masks.(i)

let set_mask b i m =
  if i < 0 || i >= b.len then invalid_arg "Ready_batch.set_mask: index out of bounds";
  b.masks.(i) <- m

let overflowed b = b.overflow
let set_overflow b = b.overflow <- true

let reverse b =
  let n = b.len in
  for i = 0 to (n / 2) - 1 do
    let j = n - 1 - i in
    let f = b.fds.(i) and m = b.masks.(i) in
    b.fds.(i) <- b.fds.(j);
    b.masks.(i) <- b.masks.(j);
    b.fds.(j) <- f;
    b.masks.(j) <- m
  done

let to_list b = List.init b.len (fun i -> (b.fds.(i), b.masks.(i)))
