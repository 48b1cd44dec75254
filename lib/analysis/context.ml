(* Shared whole-program analysis state, built once per lint run and
   threaded to every rule.

   Two fixpoints live here because more than one rule (and the
   stale-ignore shadow runs) query them:

   - [charging]: the set of definitions from which a CPU-charging
     primitive is reachable along resolved call edges. Seeds are the
     definitions whose bodies mention a primitive directly; the closure
     walks caller-ward. Unresolved calls contribute nothing — a
     higher-order callee is never assumed to charge.

   - [domain_witness] / [domain_writes]: the definitions reachable from
     a Domain_pool task root (a definition whose body mentions a
     spawning primitive — the task closures live inside those bodies,
     so the whole body over-approximates worker-context), each tagged
     with the root that reaches it, plus every mutation those
     definitions perform on module-level mutable state.

   [audit] flips a run into suppression-audit mode: rules report the
   findings an [@lint.ignore] would have masked, which is how
   stale-ignore decides whether a suppression still earns its keep. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

let charge_primitives =
  [
    [ "enter" ];
    [ "Host"; "charge" ];
    [ "Host"; "charge_run" ];
    [ "Cpu"; "consume" ];
    [ "Cpu"; "run" ];
  ]

let spawn_primitives =
  [
    [ "Domain_pool"; "submit" ];
    [ "Domain_pool"; "map" ];
    [ "Figures"; "run" ];
    (* A cluster run puts per-shard simulations on pool domains, so
       everything reachable from its body is worker-context. *)
    [ "Cluster"; "run" ];
  ]

(* A single-segment primitive must match exactly (a bare [enter]);
   qualified primitives match any mention they are a suffix of, so
   [Sio_kernel.Host.charge] still counts as [Host.charge]. *)
let mention_matches prims p =
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: xs, y :: ys -> String.equal x y && prefix xs ys
    | _ :: _, [] -> false
  in
  List.exists
    (fun prim ->
      match prim with
      | [ single ] -> ( match p with [ x ] -> String.equal x single | _ -> false)
      | _ -> prefix (List.rev prim) (List.rev p))
    prims

(* One mutation of a module-level mutable binding, performed inside
   domain-task-reachable code. *)
type evidence = {
  writer : string;  (** dotted qname of the writing definition *)
  writer_file : string;
  wline : int;
  wcol : int;
  op : string;
  root : string;  (** uid of the task root that reaches the writer *)
}

type t = {
  files : (string * Ppxlib.structure) list;
      (** the parsed inputs the index was built from; audit-mode rules
          substitute a stripped file and re-derive their state *)
  index : Symbol_index.t Lazy.t;
      (** lazy so AST-only rules ([--rule nondet-clock] on one file)
          never pay for whole-program indexing *)
  graph : Callgraph.t Lazy.t;
  complexity : Complexity.result Lazy.t;
  audit : bool;
  charging : SSet.t Lazy.t;
  domain_witness : string SMap.t Lazy.t;
  domain_writes : evidence list SMap.t Lazy.t;  (** binding uid -> writes *)
}

let build files =
  let index = lazy (Symbol_index.build files) in
  let graph = lazy (Callgraph.build (Lazy.force index)) in
  let complexity =
    lazy (Complexity.analyze ~graph:(Lazy.force graph) (Lazy.force index))
  in
  let charging =
    lazy
      (let g = Lazy.force graph in
       let seeds =
         List.filter_map
           (fun (s : Symbol_index.symbol) ->
             if List.exists (mention_matches charge_primitives) s.mentions then Some s.uid
             else None)
           (Lazy.force index).symbols
       in
       let rec grow set =
         let set' =
           List.fold_left
             (fun acc (n : Callgraph.node) ->
               if SSet.mem n.id acc then acc
               else if List.exists (fun c -> SSet.mem c acc) n.callees then
                 SSet.add n.id acc
               else acc)
             set g.Callgraph.nodes
         in
         if SSet.cardinal set' = SSet.cardinal set then set else grow set'
       in
       grow (SSet.of_list seeds))
  in
  let domain_witness =
    lazy
      (let g = Lazy.force graph in
       let roots =
         List.filter_map
           (fun (s : Symbol_index.symbol) ->
             if List.exists (mention_matches spawn_primitives) s.mentions then Some s.uid
             else None)
           (Lazy.force index).symbols
       in
       Reachability.closure ~succ:(Callgraph.callees g) ~roots)
  in
  let domain_writes =
    lazy
      (let wit = Lazy.force domain_witness in
       let add m (s : Symbol_index.symbol) =
         match SMap.find_opt s.uid wit with
         | None -> m
         | Some root ->
             let scope = Symbol_index.scope_of s in
             List.fold_left
               (fun m (w : Symbol_index.write) ->
                 Symbol_index.resolve_in (Lazy.force index) ~scope w.target
                 |> List.filter (fun (b : Symbol_index.symbol) -> b.mutable_ctor <> None)
                 |> List.fold_left
                      (fun m (b : Symbol_index.symbol) ->
                        let e =
                          {
                            writer = String.concat "." s.qname;
                            writer_file = s.file;
                            wline = w.wline;
                            wcol = w.wcol;
                            op = w.op;
                            root;
                          }
                        in
                        SMap.update b.uid
                          (function None -> Some [ e ] | Some l -> Some (e :: l))
                          m)
                      m)
               m s.writes
       in
       List.fold_left add SMap.empty (Lazy.force index).symbols
       |> SMap.map
            (List.sort (fun a b ->
                 compare
                   (a.writer_file, a.wline, a.wcol, a.op)
                   (b.writer_file, b.wline, b.wcol, b.op))))
  in
  { files; index; graph; complexity; audit = false; charging; domain_witness; domain_writes }

let of_file path str = build [ (path, str) ]
let with_audit t = { t with audit = true }
let index t = Lazy.force t.index
let graph t = Lazy.force t.graph
let complexity t = Lazy.force t.complexity
let charging t = Lazy.force t.charging
let domain_witness t = Lazy.force t.domain_witness
let domain_writes t = Lazy.force t.domain_writes

(* Human name for a uid in report messages: the dotted qname. *)
let display t uid = Callgraph.display (graph t) uid
