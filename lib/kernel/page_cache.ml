(* A page is one int: the file id above [page_bits], the page index
   below. *)
let page_bits = 32

let key ~file_id ~page =
  if file_id < 0 || page < 0 || page lsr page_bits <> 0 then
    invalid_arg "Page_cache: file id or page index out of range";
  (file_id lsl page_bits) lor page

let file_of key = key lsr page_bits

(* Intrusive doubly linked LRU list, circular through a sentinel: the
   sentinel's [next] is the most recently used page, its [prev] the
   least. No option boxes on any link. *)
type node = { key : int; mutable prev : node; mutable next : node }

module Tbl = Hashtbl.Make (Int)

type t = {
  capacity : int;
  table : node Tbl.t;
  lru : node; (* sentinel *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity_pages =
  if capacity_pages <= 0 then invalid_arg "Page_cache.create: capacity must be positive";
  let rec lru = { key = -1; prev = lru; next = lru } in
  { capacity = capacity_pages; table = Tbl.create 256; lru; hits = 0; misses = 0 }

let capacity t = t.capacity
let resident t = Tbl.length t.table

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.prev <- t.lru;
  node.next <- t.lru.next;
  t.lru.next.prev <- node;
  t.lru.next <- node

let touch t ~file_id ~page =
  let key = key ~file_id ~page in
  match Tbl.find t.table key with
  | node ->
      t.hits <- t.hits + 1;
      unlink node;
      push_front t node;
      `Hit
  | exception Not_found ->
      t.misses <- t.misses + 1;
      if Tbl.length t.table >= t.capacity then begin
        let victim = t.lru.prev in
        unlink victim;
        Tbl.remove t.table victim.key
      end;
      let rec node = { key; prev = node; next = node } in
      Tbl.replace t.table key node;
      push_front t node;
      `Miss

let contains t ~file_id ~page = Tbl.mem t.table (key ~file_id ~page)
let hits t = t.hits
let misses t = t.misses

(* Walks the LRU list, so the victims go in a fixed order. *)
let invalidate_file t ~file_id =
  let rec go node dropped =
    if node == t.lru then dropped
    else begin
      let next = node.next in
      if file_of node.key = file_id then begin
        unlink node;
        Tbl.remove t.table node.key;
        go next (dropped + 1)
      end
      else go next dropped
    end
  in
  go t.lru.next 0
