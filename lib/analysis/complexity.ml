(* Symbolic complexity certification.

   A bottom-up abstract interpreter over indexed function bodies that
   computes, per definition, a symbolic cost summary: a polynomial
   over the named size parameters of the simulated kernel
   ([n_interests], [n_active], [n_ready], [n_conns], [n_slots]), or
   top when the analysis cannot bound the work. Summaries are
   two-dimensional:

   - [host]: structural work the scan path itself performs — loop
     iterations, list walks, per-element probes. This is the dimension
     the paper's O(active) invariant constrains and the dimension the
     [@complexity] annotations certify.
   - [charged]: simulated-CPU cost routed through the cost model
     ([Host.charge] and friends are O(1) events each;
     [Cost_model.charge_batch ~count] contributes [count]'s size
     class). Kept separate because the analytically-skipped idle
     population is *charged* in bulk (O(interests)) on paths whose
     *structural* work is O(active) — conflating the two would make
     DESIGN.md section 5's bulk-charging rule unstatable.

   Cost is derived from loop and iterator structure: [Fd_map.iter] /
   [Interest_table.iter] over a table contribute that table's size
   class, [iter_while] with a recognizable early-exit contributes the
   join of the exit bounds, [for]/[while] loops contribute their
   syntactic bound, recursion and unresolved calls widen to top
   carrying a provenance path (the [Dataflow] <=16-step pattern) that
   names the loop or call responsible — so a finding can print *which*
   loop broke the invariant, not just that one did.

   Size classes are a global vocabulary, not per-callsite substitution:
   a callee that walks a parameter named [interests] summarizes to
   O(interests) and that monomial flows to every caller as-is. The
   chain ready <= active <= interests mirrors the paper's containment
   (ready sets are subsets of active sets are subsets of interest
   sets), so "O(active + ready)" normalizes to O(active) and
   entailment is set inclusion up to that order. [conns] and [slots]
   are incomparable to the chain.

   Modeling axioms (deliberate, documented over-trust — each is where
   the certificate bottoms out): recognized collection primitives cost
   what their interface documents (an [Interest_table.iter] callback
   runs once per entry; the table's internal bucket walk is not
   re-derived); [Heap] and [Engine] operations are O(1) — their
   O(log n) factors sit below the polynomial vocabulary's resolution;
   applying a parameter-bound function value ([k results], [lookup fd],
   the [f] handed to [Wait_queue.wake]) costs O(1) from the applying
   frame — this tree's continuation-passing discipline means such
   values end frames rather than loop, and their bodies are accounted
   where they are defined; likewise a call through a record field is a
   stored callback or O(1) arena access. Function arguments to
   non-iterator calls are *registered, not run* (only [Charge_run]
   thunks and iterator callbacks are applied — a subscription callback
   fires on driver edges, not per scan). Everything else — unknown
   calls, unrecognized loops, unbounded local recursion — widens to
   top rather than guessing. *)

module Df = Dataflow
open Ppxlib
module SMap = Map.Make (String)

type step = Finding.step

(* ------------------------------------------------------------------ *)
(* The cost lattice                                                   *)
(* ------------------------------------------------------------------ *)

(* Named size parameters, canonical order. *)
let params = [ "ready"; "active"; "interests"; "conns"; "slots" ]

(* ready <= active <= interests (containment chain); conns and slots
   are only comparable to themselves. *)
let param_le a b =
  String.equal a b
  ||
  match (a, b) with
  | "ready", ("active" | "interests") -> true
  | "active", "interests" -> true
  | _ -> false

(* A monomial: a sorted multiset of parameters. [] is the constant
   monomial (O(1)). *)
type mono = string list

(* A cost: a normalized sum of monomials, each carrying a witness path
   (the loop steps that produced it), or top with a provenance path
   naming what defeated the analysis. *)
type cost = Poly of (mono * step list) list | Top of step list

type summary = { host : cost; charged : cost }

let const = Poly [ ([], []) ]
let poly1 p = Poly [ ([ p ], []) ]
let top steps = Top (Df.clip steps)
let unit_summary = { host = const; charged = const }

(* Witness preference: shortest path wins, ties broken structurally —
   deterministic and independent of join order. *)
let path_le (p : step list) (q : step list) =
  let lp = List.length p and lq = List.length q in
  if lp <> lq then lp < lq else compare p q <= 0

(* Sub-multiset match under [param_le]: every factor of [a] consumes a
   distinct factor of [b] that dominates it. Backtracking, but
   monomials here have 1-3 factors. *)
let rec mono_le (a : mono) (b : mono) =
  match a with
  | [] -> true
  | x :: rest ->
      let rec pick seen = function
        | [] -> false
        | y :: ys ->
            (param_le x y && mono_le rest (List.rev_append seen ys))
            || pick (y :: seen) ys
      in
      pick [] b

let sort_mono (m : mono) = List.sort String.compare m

(* Normal form: monomials sorted and deduplicated (keeping the
   preferred witness), dominated monomials dropped (m is dropped when
   some *other* monomial dominates it — with [param_le] a partial
   order and monomials sorted, mutual domination implies equality, so
   the maximal set is unique). *)
let normalize (ms : (mono * step list) list) =
  let ms = List.map (fun (m, p) -> (sort_mono m, p)) ms in
  let dedup =
    List.fold_left
      (fun acc (m, p) ->
        match List.assoc_opt m acc with
        | Some q when path_le q p -> acc
        | Some _ -> (m, p) :: List.remove_assoc m acc
        | None -> (m, p) :: acc)
      [] ms
  in
  let maximal =
    List.filter
      (fun (m, _) ->
        not (List.exists (fun (m', _) -> m <> m' && mono_le m m') dedup))
      dedup
  in
  List.sort (fun (a, _) (b, _) -> compare a b) maximal

let of_monos ms = Poly (normalize ms)

(* Entailment: c1 <= c2 when every monomial of c1 is dominated by some
   monomial of c2. Everything is below top; top is below nothing
   finite. *)
let le c1 c2 =
  match (c1, c2) with
  | _, Top _ -> true
  | Top _, Poly _ -> false
  | Poly a, Poly b ->
      List.for_all (fun (m, _) -> List.exists (fun (m', _) -> mono_le m m') b) a

let equal_cost c1 c2 =
  match (c1, c2) with
  | Top _, Top _ -> true
  | Poly a, Poly b -> List.map fst a = List.map fst b
  | _ -> false

let join c1 c2 =
  match (c1, c2) with
  | Top p, Top q -> Top (if path_le p q then p else q)
  | (Top _ as t), Poly _ | Poly _, (Top _ as t) -> t
  | Poly a, Poly b -> Poly (normalize (a @ b))

(* Sequential composition is join: O(f) work then O(g) work is
   O(f + g) = the monomial union, which is what [join] computes. *)
let seq_cost = join
let seq (a : summary) (b : summary) = { host = seq_cost a.host b.host; charged = seq_cost a.charged b.charged }
let join_summary (a : summary) (b : summary) = seq a b

(* A loop of class [k] running a body of cost [c]: the monomial
   product, witnessed by the loop step followed by both provenances. *)
let mult ~(step : step) k c =
  match (k, c) with
  | Top p, _ | _, Top p -> Top (Df.clip (step :: p))
  | Poly km, Poly cm ->
      let km = if km = [] then [ ([], []) ] else km in
      let cm = if cm = [] then [ ([], []) ] else cm in
      Poly
        (normalize
           (List.concat_map
              (fun (mk, pk) ->
                List.map
                  (fun (mc, pc) ->
                    (sort_mono (mk @ mc), Df.clip ((step :: pk) @ pc)))
                  cm)
              km))

let mult_summary ~step k (s : summary) =
  { host = mult ~step k s.host; charged = mult ~step k s.charged }

(* Witness-blind copy, for lattice property tests: two costs have the
   same shape when their monomial sets agree. *)
let strip = function
  | Top _ -> Top []
  | Poly ms -> Poly (List.map (fun (m, _) -> (m, [])) ms)

let witness_steps = function
  | Top p -> p
  | Poly ms -> ( match ms with (_, p) :: _ -> p | [] -> [])


(* ------------------------------------------------------------------ *)
(* Rendering and the annotation grammar                               *)
(* ------------------------------------------------------------------ *)

let render_mono = function [] -> "1" | m -> String.concat "*" m

let render_cost = function
  | Top _ -> "O(top)"
  | Poly [] -> "O(1)"
  | Poly ms -> "O(" ^ String.concat " + " (List.map (fun (m, _) -> render_mono m) ms) ^ ")"

(* Top with its origin, for the report: names what defeated the
   analysis and where. *)
let render_cost_origin = function
  | Top (s :: _) -> Printf.sprintf "O(top) <- %s at %s:%d" s.Finding.swhat s.sfile s.sline
  | Top [] -> "O(top)"
  | c -> render_cost c

(* First monomial of [inferred] not dominated by [annot], with its
   witness path — what a scan-complexity violation names. *)
let first_violation inferred annot =
  match (inferred, annot) with
  | Top p, _ -> Some ("O(top)", p)
  | Poly _, Top _ -> None
  | Poly ms, Poly am ->
      List.find_opt
        (fun (m, _) -> not (List.exists (fun (m', _) -> mono_le m m') am))
        ms
      |> Option.map (fun (m, p) -> ("O(" ^ render_mono m ^ ")", p))

(* Annotation grammar: "O(" sum ")"; sum = prod ('+' prod)*;
   prod = atom ('*' atom)*; atom = "1" | parameter, where parameters
   accept both the bare and the n_-prefixed spellings. *)
let parse_param s =
  match String.lowercase_ascii (String.trim s) with
  | "active" | "n_active" -> Some "active"
  | "ready" | "n_ready" -> Some "ready"
  | "interests" | "n_interests" -> Some "interests"
  | "conns" | "n_conns" -> Some "conns"
  | "slots" | "n_slots" -> Some "slots"
  | _ -> None

let parse_annot (s : string) : cost option =
  let s = String.trim s in
  let n = String.length s in
  if n < 4 || not (String.equal (String.sub s 0 2) "O(") || s.[n - 1] <> ')' then None
  else begin
    let body = String.sub s 2 (n - 3) in
    let terms = String.split_on_char '+' body in
    let parse_term t =
      let factors = String.split_on_char '*' t in
      List.fold_left
        (fun acc f ->
          match acc with
          | None -> None
          | Some m -> (
              match String.trim f with
              | "1" -> Some m
              | f -> ( match parse_param f with Some p -> Some (p :: m) | None -> None)))
        (Some []) factors
    in
    let monos = List.map parse_term terms in
    if List.exists Option.is_none monos || monos = [] then None
    else Some (of_monos (List.map (fun m -> (Option.get m, [])) monos))
  end

(* ------------------------------------------------------------------ *)
(* The size-class vocabulary                                          *)
(* ------------------------------------------------------------------ *)

(* Exact-name mapping from identifiers, record fields and parameters
   to size classes. The names come from the tree's own conventions
   (DESIGN.md section 7 documents the table). *)
let vocab = function
  | "active" | "acts" | "actives" -> Some "active"
  | "conns" -> Some "conns"
  | "slots" -> Some "slots"
  | "interests" | "entries" | "members" | "table" | "subs" | "bindings" | "read"
  | "write" | "except" | "nfds" | "fds" | "max_fd" | "count" | "total" | "sockets" ->
      Some "interests"
  | "ready" | "results" | "rs" | "events" | "ds" | "max_results" | "max_events"
  | "max" | "waiters" | "wq" | "batch" | "heap" | "requeue" ->
      Some "ready"
  | _ -> None

(* Record fields whose size class is O(1) by axiom: scalar bookkeeping
   (tokens, cursors, generation counters) and the per-socket
   registration slabs of [Socket.Regs], which are bounded by the
   number of backend instances watching one socket — a constant, not a
   population. Checked before [vocab] so [len]/[tok] never read as
   populations. *)
let const_fields =
  [ "len"; "tok"; "next"; "next_seq"; "seq"; "limit"; "slot"; "gen"; "closed"; "sigio" ]

(* ------------------------------------------------------------------ *)
(* Head recognizers                                                   *)
(* ------------------------------------------------------------------ *)

type coll_pos = Pos of int | LastArg

type head_kind =
  | Charge  (** O(1) charge event *)
  | Charge_run  (** charge + run the thunk argument once *)
  | Charge_batch  (** Cost_model.charge_batch ~count *)
  | Iterate of { coll : coll_pos; exits : bool; res_is_coll : bool }
      (** walks the collection; callbacks run once per element *)
  | Length of coll_pos  (** O(1) work whose result has the collection's class *)
  | Const_fn  (** O(1) work, O(1) result class *)
  | Arith  (** O(1) work, result class = join of argument classes *)
  | Unknown

let const_modules =
  [
    "Printf"; "Format"; "String"; "Bytes"; "Buffer"; "Char"; "Int"; "Int32";
    "Int64"; "Float"; "Bool"; "Option"; "Result"; "Either"; "Sys"; "Filename";
    "Fun"; "Stdlib"; "Atomic"; "Random"; "Bigarray"; "Array1"; "Array2";
    "Genarray"; "Nativeint"; "Lazy"; "Printexc"; "Time"; "Pollmask"; "Exn";
  ]

let const_idents =
  [
    "ignore"; "fst"; "snd"; "raise"; "raise_notrace"; "failwith";
    "invalid_arg"; "@@"; "|>"; "^"; "string_of_int"; "int_of_string";
    "float_of_int"; "int_of_float"; "string_of_float"; "print_string";
    "print_endline"; "prerr_endline"; "exit"; "at_exit";
  ]

(* O(1) work whose *result class* is the join of the argument classes:
   arithmetic, comparisons and boolean connectives (so a loop bound
   like [!n < max_events] inherits [max_events]'s class), ref cells,
   and the unqualified pollmask combinators socket.ml uses under
   [open Pollmask]. *)
let arith_idents =
  [
    "+"; "-"; "*"; "/"; "mod"; "min"; "max"; "succ"; "pred"; "abs"; "land";
    "lor"; "lxor"; "lnot"; "lsl"; "lsr"; "asr"; "~-"; "+."; "-."; "*."; "/.";
    "ref"; "!"; ":="; "incr"; "decr"; "@"; "compare"; "="; "<>"; "<"; ">";
    "<="; ">="; "=="; "!="; "not"; "&&"; "||"; "union"; "inter"; "intersects";
    "diff";
  ]

let list_iterators =
  [
    "iter"; "iteri"; "map"; "mapi"; "filter"; "filter_map"; "fold_left";
    "fold_right"; "for_all"; "exists"; "find"; "find_opt"; "find_map";
    "partition"; "concat_map"; "sort"; "sort_uniq"; "stable_sort"; "rev_map";
    "rev_append"; "append"; "length"; "mem"; "memq"; "assoc"; "assoc_opt";
    "mem_assoc"; "rev"; "concat"; "flatten"; "split"; "combine"; "nth";
    "nth_opt"; "filteri"; "iter2"; "map2"; "fold_left2";
  ]

(* Which List functions return something sized like their input. *)
let list_sized_results =
  [
    "map"; "mapi"; "filter"; "filter_map"; "fold_left"; "fold_right"; "sort";
    "sort_uniq"; "stable_sort"; "rev_map"; "rev_append"; "append"; "length";
    "partition"; "concat_map"; "rev"; "concat"; "flatten"; "split"; "combine";
    "filteri"; "map2";
  ]

let head_kind (path : string list) : head_kind =
  match List.rev path with
  | [] -> Unknown
  | [ "enter" ] -> Charge
  | f :: rest -> (
      let m = match rest with m :: _ -> m | [] -> "" in
      match (m, f) with
      | "Host", "charge" | "Cpu", "consume" -> Charge
      | "Host", "charge_run" | "Cpu", "run" -> Charge_run
      | "Cost_model", "charge_batch" -> Charge_batch
      | "List", "init" ->
          Iterate { coll = Pos 0; exits = false; res_is_coll = true }
      | "List", f when List.mem f list_iterators ->
          Iterate
            { coll = LastArg; exits = false; res_is_coll = List.mem f list_sized_results }
      | "Fd_map", ("iter" | "fold" | "to_list") ->
          Iterate { coll = Pos 0; exits = false; res_is_coll = not (String.equal f "iter") }
      | "Fd_map", ("min_key" | "max_key") -> Length (Pos 0)
      | "Fd_map", ("length" | "is_empty") -> Length (Pos 0)
      | "Fd_map", _ -> Const_fn (* find/set/remove/mem/clear/create: O(1) *)
      | "Interest_table", ("iter" | "fold") ->
          Iterate { coll = Pos 0; exits = false; res_is_coll = String.equal f "fold" }
      | "Interest_table", "iter_while" ->
          Iterate { coll = Pos 0; exits = true; res_is_coll = false }
      | "Interest_table", ("length" | "bucket_count" | "mean_bucket_occupancy") ->
          Length (Pos 0)
      | "Interest_table", _ -> Const_fn (* find/set/remove: O(1) amortized *)
      | "Ready_buffer", ("iter" | "fold" | "to_list") ->
          Iterate { coll = Pos 0; exits = false; res_is_coll = not (String.equal f "iter") }
      | "Ready_buffer", ("length" | "is_empty") -> Length (Pos 0)
      | "Ready_buffer", _ -> Const_fn (* push/get/clear/create: O(1) *)
      | "Fd_set", ("iter" | "fold" | "copy" | "clear_all") ->
          Iterate { coll = Pos 0; exits = false; res_is_coll = true }
      | "Fd_set", ("max_fd" | "cardinal" | "is_empty") -> Length (Pos 0)
      | "Fd_set", _ -> Const_fn (* set/clear/mem: O(1) bit ops *)
      | "Hashtbl", ("iter" | "fold" | "filter_map_inplace") ->
          Iterate { coll = LastArg; exits = false; res_is_coll = String.equal f "fold" }
      | "Hashtbl", ("length" | "stats") -> Length LastArg
      | "Hashtbl", _ -> Const_fn
      | "Queue", ("iter" | "fold" | "transfer" | "copy" | "to_seq") ->
          Iterate { coll = LastArg; exits = false; res_is_coll = String.equal f "fold" }
      | "Queue", ("length" | "is_empty") -> Length LastArg
      | "Queue", _ -> Const_fn
      | "Array", "init" ->
          Iterate { coll = Pos 0; exits = false; res_is_coll = true }
      | "Array", ("make" | "blit" | "fill" | "copy") ->
          (* allocation axiom: buffer allocation/moves are amortized
             O(1) (slab growth doubles; the copy amortizes over the
             element writes that filled it) *)
          Const_fn
      | "Array", f
        when List.mem f
               [ "iter"; "iteri"; "map"; "mapi"; "fold_left"; "fold_right";
                 "to_list"; "of_list"; "exists";
                 "for_all"; "mem"; "sort"; "stable_sort" ] ->
          Iterate { coll = LastArg; exits = false; res_is_coll = true }
      | "Array", "length" -> Length (Pos 0)
      | "Array", _ -> Const_fn (* get/set/unsafe_*: O(1) *)
      | "Heap", ("length" | "is_empty") -> Length (Pos 0)
      | "Heap", _ -> Const_fn (* push/pop/peek: O(log pending), below resolution *)
      | "Engine", _ -> Const_fn (* timer registration/cancel *)
      | "Stdlib", f when List.mem f arith_idents -> Arith
      | _, _ when List.mem m const_modules -> Const_fn
      | "", f when List.mem f const_idents -> Const_fn
      | "", f when List.mem f arith_idents -> Arith
      | _ -> Unknown)

(* ------------------------------------------------------------------ *)
(* The abstract interpreter                                           *)
(* ------------------------------------------------------------------ *)

(* A function value tracked through the environment: a syntactic
   lambda (with how its self-recursion, if any, is bounded) or a
   reference to an indexed symbol. *)
type fkind = Plain | Bounded of int | Unbounded

type lfun =
  | Lfun of { fps : function_param list; fb : function_body; kind : fkind; lloc : Location.t; lname : string }
  | Lsym of string  (** symbol uid *)

type value = { cls : cost; fn : lfun option }

type batch_site = {
  bloc : Location.t;
  buid : string;
  bfile : string;
  count_class : cost;
  loop_class : cost;  (** join of enclosing loop classes; const outside loops *)
}

type loop_site = {
  lloc : Location.t;
  luid : string;
  lfile : string;
  lhead : string;
  lclass : cost;
  body_charged : cost;  (** per-iteration charged cost of the body *)
}

type env = {
  index : Symbol_index.t;
  summaries : summary SMap.t;
  classes : cost SMap.t;
      (** symbol uid -> size class of the value the symbol returns,
          iterated to fixpoint alongside [summaries] so a binding like
          [let first = harvest t ~max_events] knows [first] is sized
          O(ready) *)
  scope : string list;
  file : string;
  uid : string;
  vars : value SMap.t ref;
  mutable loop_stack : cost list;
  mutable fuel : int;
  batches : batch_site list ref;
  loops : loop_site list ref;
}

let step_at env (loc : Location.t) what =
  let p = loc.loc_start in
  { Finding.sfile = env.file; sline = p.pos_lnum; scol = p.pos_cnum - p.pos_bol; swhat = what }

let top_at env loc what = top [ step_at env loc what ]
let top_summary env loc what =
  let t = top_at env loc what in
  { host = t; charged = t }

let dotted = String.concat "."

let rec returns_false e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "false"; _ }, None) -> true
  | Pexp_sequence (_, b) -> returns_false b
  | Pexp_let (_, _, b) -> returns_false b
  | Pexp_constraint (b, _) -> returns_false b
  | _ -> false

(* Pure size-class evaluator: what parameter class does this
   expression's *value* scale with? Reads the shared environment but
   performs no accounting. *)
let rec class_of env (e : expression) : cost =
  match e.pexp_desc with
  | Pexp_constant _ -> const
  | Pexp_construct ({ txt = Lident ("[]" | "()" | "true" | "false" | "None"); _ }, _) ->
      const
  | Pexp_construct ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ _; tl ]; _ }) ->
      class_of env tl
  | Pexp_construct (_, Some arg) -> class_of env arg
  | Pexp_construct (_, None) -> const
  | Pexp_variant (_, Some arg) -> class_of env arg
  | Pexp_variant (_, None) -> const
  | Pexp_ident { txt = Lident name; _ } -> (
      match SMap.find_opt name !(env.vars) with
      | Some v -> v.cls
      | None -> (
          match vocab name with
          | Some p -> poly1 p
          | None ->
              top_at env e.pexp_loc
                (Printf.sprintf "identifier %s has no size class" name)))
  | Pexp_ident _ -> const (* a qualified value (Time.zero, ...) is a scalar *)
  | Pexp_field (_, { txt; _ }) -> (
      let fname = match List.rev (Symbol_index.path_of_lid txt) with f :: _ -> f | [] -> "" in
      if List.mem fname const_fields then const
      else
        match vocab fname with
        | Some p -> poly1 p
        | None ->
            top_at env e.pexp_loc (Printf.sprintf "field %s has no size class" fname))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let path = Symbol_index.path_of_lid txt in
      let positional =
        List.filter_map (fun (l, a) -> match l with Nolabel -> Some a | _ -> None) args
      in
      let coll_arg cp =
        match cp with
        | Pos i -> List.nth_opt positional i
        | LastArg -> ( match List.rev positional with a :: _ -> Some a | [] -> None)
      in
      match head_kind path with
      | Length cp | Iterate { coll = cp; res_is_coll = true; _ } -> (
          match coll_arg cp with
          | Some a -> class_of env a
          | None -> const)
      | Iterate { res_is_coll = false; _ } -> const
      | Arith ->
          List.fold_left (fun acc (_, a) -> join acc (class_of env a)) const args
      | Const_fn | Charge | Charge_run | Charge_batch -> const
      | Unknown -> (
          (* an in-tree callee's result class comes from the class
             fixpoint; unresolved calls have no size class *)
          match Symbol_index.resolve_in env.index ~scope:env.scope path with
          | [] ->
              top_at env e.pexp_loc
                (Printf.sprintf "result of call %s has no size class" (dotted path))
          | syms ->
              List.fold_left
                (fun acc (s : Symbol_index.symbol) ->
                  join acc
                    (match SMap.find_opt s.uid env.classes with
                    | Some c -> c
                    | None -> const))
                const syms))
  | Pexp_apply ({ pexp_desc = Pexp_field _; _ }, _) ->
      (* call through a record field: an O(1) lookup/callback whose
         result is a scalar or single element *)
      const
  | Pexp_ifthenelse (_, t, e') ->
      join (class_of env t)
        (match e' with Some x -> class_of env x | None -> const)
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.fold_left (fun acc c -> join acc (class_of env c.pc_rhs)) const
        (if cases = [] then [] else cases)
  | Pexp_let (_, _, b) | Pexp_sequence (_, b) -> class_of env b
  | Pexp_constraint (b, _) | Pexp_coerce (b, _, _) -> class_of env b
  | Pexp_open (_, b) | Pexp_letmodule (_, _, b) | Pexp_letexception (_, b) ->
      class_of env b
  | Pexp_tuple es -> List.fold_left (fun acc x -> join acc (class_of env x)) const es
  | Pexp_function _ -> const
  | _ -> top_at env e.pexp_loc "expression has no recognizable size class"

(* Classes of the early-exit conditions in an [iter_while] callback:
   every branch that tail-returns [false] bounds the iteration count
   by its condition's class. *)
let exit_classes env (body : expression) =
  let acc = ref None in
  let add c = acc := Some (match !acc with None -> c | Some x -> join x c) in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ifthenelse (cond, t, e') ->
            if returns_false t || (match e' with Some x -> returns_false x | None -> false)
            then add (class_of env cond)
        | Pexp_match (scrut, cases) ->
            if List.exists (fun c -> returns_false c.pc_rhs) cases then
              add (class_of env scrut)
        | _ -> ());
        super#expression e
    end
  in
  it#expression body;
  !acc

(* [while] bound: walk the condition's boolean structure ([&&], [||],
   [not]) and join the classes of every *recognizable size atom* — a
   comparison (class = join of its operands) or an emptiness/length
   test (class = the collection's). Boolean flags ([!continue],
   [q.sigio]) are not bounds and are skipped; a condition with no
   recognizable atom at all is top. *)
let while_bound env (cond : expression) =
  let cmp_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!=" ] in
  let rec atoms e =
    match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Lident ("&&" | "||"); _ }; _ }, [ (_, a); (_, b) ]) ->
        atoms a @ atoms b
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "not"; _ }; _ }, [ (_, a) ]) ->
        atoms a
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident op; _ }; _ }, _)
      when List.mem op cmp_ops ->
        [ class_of env e ]
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match head_kind (Symbol_index.path_of_lid txt) with
        | Length _ -> [ class_of env e ]
        | _ -> [])
    | Pexp_constraint (b, _) -> atoms b
    | _ -> []
  in
  match atoms cond with
  | [] -> top_at env cond.pexp_loc "while loop without recognizable bound"
  | cs -> List.fold_left join const cs

(* Local [let rec] groups: only an actual application cycle widens.
   The in-tree wake/arm continuation pairs define mutually-referencing
   lambdas that never call back into themselves — those stay plain.
   A single-member cycle whose every self-call syntactically
   decrements one int parameter ([go acc (n - 1)]) is bounded by that
   parameter's class; anything else cyclic is unbounded. *)
let params_of_lambda (e : expression) =
  match e.pexp_desc with
  | Pexp_function (fps, _, _) ->
      List.filter_map
        (fun fp ->
          match fp.pparam_desc with
          | Pparam_val (_, _, pat) -> Some (Symbol_index.var_name pat)
          | Pparam_newtype _ -> None)
        fps
  | _ -> []

let self_calls name (body : expression) =
  let acc = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident n; _ }; _ }, args)
          when String.equal n name ->
            acc := args :: !acc
        | _ -> ());
        super#expression e
    end
  in
  it#expression body;
  !acc

let applied_names names (body : expression) =
  let acc = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident n; _ }; _ }, _)
          when List.mem n names ->
            acc := n :: !acc
        | _ -> ());
        super#expression e
    end
  in
  it#expression body;
  List.sort_uniq String.compare !acc

let decrements_param param (arg : expression) =
  match (param, arg.pexp_desc) with
  | Some p, Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "-"; _ }; _ },
                        [ (_, { pexp_desc = Pexp_ident { txt = Lident v; _ }; _ });
                          (_, { pexp_desc = Pexp_constant _; _ }) ]) ->
      String.equal v p
  | Some p, Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "pred"; _ }; _ },
                        [ (_, { pexp_desc = Pexp_ident { txt = Lident v; _ }; _ }) ]) ->
      String.equal v p
  | _ -> false

(* kind of one recursive binding: Bounded i when some parameter index
   i is decremented by every self-application. *)
let rec_kind name (rhs : expression) =
  let ps = params_of_lambda rhs in
  let calls = self_calls name rhs in
  if calls = [] then Plain
  else
    let bounded_at i =
      let p = List.nth_opt ps i |> Option.join in
      List.for_all
        (fun args ->
          let positional =
            List.filter_map (fun (l, a) -> match l with Nolabel -> Some a | _ -> None) args
          in
          match List.nth_opt positional i with
          | Some a -> decrements_param p a
          | None -> false)
        calls
    in
    let rec find i = if i >= List.length ps then None else if bounded_at i then Some i else find (i + 1) in
    match find 0 with Some i -> Bounded i | None -> Unbounded

(* ------------------------------------------------------------------ *)
(* eval                                                               *)
(* ------------------------------------------------------------------ *)

type arg_info = { alabel : arg_label; aexpr : expression; asum : summary; acls : cost; afn : lfun option }

let loop_join env = List.fold_left join const env.loop_stack

let bind env name v = env.vars := SMap.add name v !(env.vars)

let bind_pattern_vocab env pat =
  match Symbol_index.var_name pat with
  | Some n ->
      let cls =
        match vocab n with
        | Some p -> poly1 p
        | None -> top [ { Finding.sfile = env.file; sline = pat.ppat_loc.loc_start.pos_lnum;
                          scol = pat.ppat_loc.loc_start.pos_cnum - pat.ppat_loc.loc_start.pos_bol;
                          swhat = Printf.sprintf "parameter %s has no size class" n } ]
      in
      bind env n { cls; fn = None }
  | None -> ()

let rec eval env (e : expression) : summary * lfun option =
  match e.pexp_desc with
  | Pexp_constant _ -> (unit_summary, None)
  | Pexp_ident { txt; _ } -> (
      let path = Symbol_index.path_of_lid txt in
      match path with
      | [ name ] when SMap.mem name !(env.vars) ->
          (unit_summary, (SMap.find name !(env.vars)).fn)
      | _ -> (
          match Symbol_index.resolve_in env.index ~scope:env.scope path with
          | s :: _ -> (unit_summary, Some (Lsym s.Symbol_index.uid))
          | [] -> (unit_summary, None)))
  | Pexp_function (fps, _, fb) ->
      (unit_summary, Some (Lfun { fps; fb; kind = Plain; lloc = e.pexp_loc; lname = "<fun>" }))
  | Pexp_apply (head, args) -> eval_apply env e head args
  | Pexp_let (Nonrecursive, vbs, body) ->
      let w =
        List.fold_left
          (fun acc vb ->
            let s, fn = eval env vb.pvb_expr in
            (match Symbol_index.var_name vb.pvb_pat with
            | Some n ->
                let computed = class_of env vb.pvb_expr in
                let cls =
                  match computed with
                  | Top _ -> (
                      match vocab n with Some p -> poly1 p | None -> computed)
                  | c -> c
                in
                bind env n { cls; fn }
            | None -> ());
            seq acc s)
          unit_summary vbs
      in
      let s, fn = eval env body in
      (seq w s, fn)
  | Pexp_let (Recursive, vbs, body) ->
      let names = List.filter_map (fun vb -> Symbol_index.var_name vb.pvb_pat) vbs in
      (* application graph within the group; a member is cyclic when it
         can reach itself through applications. *)
      let edges =
        List.filter_map
          (fun vb ->
            match Symbol_index.var_name vb.pvb_pat with
            | Some n -> Some (n, applied_names names vb.pvb_expr)
            | None -> None)
          vbs
      in
      let reaches_self n =
        let rec go visited frontier =
          match frontier with
          | [] -> false
          | x :: rest ->
              if List.mem x visited then go visited rest
              else
                let nexts = try List.assoc x edges with Not_found -> [] in
                if List.mem n nexts then true else go (x :: visited) (nexts @ rest)
        in
        go [] (try List.assoc n edges with Not_found -> [])
      in
      List.iter
        (fun vb ->
          match Symbol_index.var_name vb.pvb_pat with
          | Some n -> (
              match vb.pvb_expr.pexp_desc with
              | Pexp_function (fps, _, fb) ->
                  let kind =
                    if not (reaches_self n) then Plain
                    else
                      match rec_kind n vb.pvb_expr with
                      | Plain | Bounded _ as k -> (
                          (* mutual cycle through others: only trust a
                             direct decrement bound *)
                          match k with Bounded i -> Bounded i | _ -> Unbounded)
                      | Unbounded -> Unbounded
                  in
                  bind env n
                    { cls = const;
                      fn = Some (Lfun { fps; fb; kind; lloc = vb.pvb_loc; lname = n }) }
              | _ ->
                  let s, fn = eval env vb.pvb_expr in
                  ignore s;
                  bind env n { cls = class_of env vb.pvb_expr; fn })
          | None -> ())
        vbs;
      eval env body
  | Pexp_sequence (a, b) ->
      let sa, _ = eval env a in
      let sb, fn = eval env b in
      (seq sa sb, fn)
  | Pexp_ifthenelse (c, t, e') ->
      let sc, _ = eval env c in
      let st, ft = eval env t in
      let se, _ = match e' with Some x -> eval env x | None -> (unit_summary, None) in
      (seq sc (join_summary st se), ft)
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let ss, _ = eval env scrut in
      let sc =
        List.fold_left
          (fun acc c ->
            let sg, _ = match c.pc_guard with Some g -> eval env g | None -> (unit_summary, None) in
            let sb, _ = eval env c.pc_rhs in
            join_summary acc (seq sg sb))
          unit_summary cases
      in
      (seq ss sc, None)
  | Pexp_while (cond, body) ->
      let k = while_bound env cond in
      let step = step_at env e.pexp_loc (Printf.sprintf "while loop, class %s" (render_cost k)) in
      env.loop_stack <- k :: env.loop_stack;
      let sc, _ = eval env cond in
      let sb, _ = eval env body in
      env.loop_stack <- List.tl env.loop_stack;
      let body_sum = seq sc sb in
      env.loops :=
        { lloc = e.pexp_loc; luid = env.uid; lfile = env.file; lhead = "while";
          lclass = k; body_charged = body_sum.charged }
        :: !(env.loops);
      (mult_summary ~step k body_sum, None)
  | Pexp_for (pat, lo, hi, _, body) ->
      let k = join (class_of env lo) (class_of env hi) in
      let step = step_at env e.pexp_loc (Printf.sprintf "for loop, class %s" (render_cost k)) in
      bind_pattern_vocab env pat;
      (match Symbol_index.var_name pat with
      | Some n -> bind env n { cls = const; fn = None }
      | None -> ());
      env.loop_stack <- k :: env.loop_stack;
      let slo, _ = eval env lo in
      let shi, _ = eval env hi in
      let sb, _ = eval env body in
      env.loop_stack <- List.tl env.loop_stack;
      env.loops :=
        { lloc = e.pexp_loc; luid = env.uid; lfile = env.file; lhead = "for";
          lclass = k; body_charged = sb.charged }
        :: !(env.loops);
      (seq (seq slo shi) (mult_summary ~step k sb), None)
  | Pexp_setfield (r, _, v) ->
      let sr, _ = eval env r in
      let sv, _ = eval env v in
      (seq sr sv, None)
  | Pexp_field (r, _) ->
      let s, _ = eval env r in
      (s, None)
  | Pexp_record (fields, base) ->
      let s =
        List.fold_left
          (fun acc (_, fe) ->
            let sf, _ = eval env fe in
            seq acc sf)
          unit_summary fields
      in
      let sb = match base with Some b -> fst (eval env b) | None -> unit_summary in
      (seq s sb, None)
  | Pexp_tuple es | Pexp_array es ->
      ( List.fold_left
          (fun acc x ->
            let s, _ = eval env x in
            seq acc s)
          unit_summary es,
        None )
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
      let s, _ = eval env arg in
      (s, None)
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> (unit_summary, None)
  | Pexp_constraint (b, _) | Pexp_coerce (b, _, _) -> eval env b
  | Pexp_open (_, b) | Pexp_letmodule (_, _, b) | Pexp_letexception (_, b)
  | Pexp_newtype (_, b) | Pexp_lazy b ->
      eval env b
  | Pexp_assert b ->
      let s, _ = eval env b in
      (s, None)
  | _ -> (unit_summary, None)

and eval_args env args : arg_info list =
  List.map
    (fun (alabel, aexpr) ->
      let asum, afn = eval env aexpr in
      let afn =
        match afn with
        | Some _ -> afn
        | None -> (
            (* an ident naming an indexed definition is a callback
               candidate even when shadow-checked above *)
            match aexpr.pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
                (* partial application: multiply the resolved head's
                   summary when used as a callback *)
                match
                  Symbol_index.resolve_in env.index ~scope:env.scope
                    (Symbol_index.path_of_lid txt)
                with
                | s :: _ when (match head_kind (Symbol_index.path_of_lid txt) with
                               | Unknown -> true
                               | _ -> false) ->
                    Some (Lsym s.Symbol_index.uid)
                | _ -> None)
            | _ -> None)
      in
      { alabel; aexpr; asum; acls = class_of env aexpr; afn })
    args

and apply_lfun env (lf : lfun) (args : arg_info list) : summary =
  match lf with
  | Lsym uid -> (
      match SMap.find_opt uid env.summaries with
      | Some s -> s
      | None -> unit_summary)
  | Lfun { fps; fb; kind; lloc; lname } -> (
      if env.fuel <= 0 then top_summary env lloc "analysis fuel exhausted"
      else begin
        env.fuel <- env.fuel - 1;
        (* bind value parameters positionally *)
        let vparams =
          List.filter_map
            (fun fp ->
              match fp.pparam_desc with
              | Pparam_val (_, _, pat) -> Some pat
              | Pparam_newtype _ -> None)
            fps
        in
        List.iteri
          (fun i pat ->
            match Symbol_index.var_name pat with
            | Some n -> (
                match List.nth_opt args i with
                | Some a -> bind env n { cls = a.acls; fn = a.afn }
                | None -> bind_pattern_vocab env pat)
            | None -> ())
          vparams;
        (* shadow the recursive name during body evaluation: the body
           summary is ONE iteration's cost (the [Bounded]
           multiplication below accounts the count), so self-calls
           inside it are O(1) frame transfers — and must not re-apply
           the lambda until fuel runs out *)
        let saved_self =
          match kind with
          | Bounded _ | Unbounded ->
              let old = SMap.find_opt lname !(env.vars) in
              bind env lname { cls = const; fn = None };
              Some (lname, old)
          | Plain -> None
        in
        let body_sum =
          match fb with
          | Pfunction_body b -> fst (eval env b)
          | Pfunction_cases (cases, _, _) ->
              List.fold_left
                (fun acc c ->
                  let sg = match c.pc_guard with Some g -> fst (eval env g) | None -> unit_summary in
                  join_summary acc (seq sg (fst (eval env c.pc_rhs))))
                unit_summary cases
        in
        (match saved_self with
        | Some (n, Some old) -> bind env n old
        | Some (n, None) -> env.vars := SMap.remove n !(env.vars)
        | None -> ());
        match kind with
        | Plain -> body_sum
        | Unbounded ->
            top_summary env lloc
              (Printf.sprintf "unbounded local recursion %s" lname)
        | Bounded i ->
            let k =
              match List.nth_opt args i with
              | Some a -> a.acls
              | None -> top_at env lloc (Printf.sprintf "recursion bound of %s out of scope" lname)
            in
            let step =
              step_at env lloc
                (Printf.sprintf "bounded recursion %s, class %s" lname (render_cost k))
            in
            mult_summary ~step k body_sum
      end)

and eval_apply env (e : expression) head args : summary * lfun option =
  match head.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let path = Symbol_index.path_of_lid txt in
      (* := / incr / decr: ref accumulation inside a loop promotes the
         target's class to the loop's class. *)
      (match (path, args) with
      | [ ":=" ], (_, { pexp_desc = Pexp_ident { txt = Lident r; _ }; _ }) :: (_, rhs) :: _ -> (
          match SMap.find_opt r !(env.vars) with
          | Some v when env.loop_stack <> [] ->
              bind env r
                { v with cls = join v.cls (join (loop_join env) (class_of env rhs)) }
          | _ -> ())
      | ([ "incr" ] | [ "decr" ]), (_, { pexp_desc = Pexp_ident { txt = Lident r; _ }; _ }) :: _ -> (
          match SMap.find_opt r !(env.vars) with
          | Some v when env.loop_stack <> [] ->
              bind env r { v with cls = join v.cls (loop_join env) }
          | _ -> ())
      | _ -> ());
      match path with
      | [ name ] when SMap.mem name !(env.vars) -> (
          let infos = eval_args env args in
          let args_work = List.fold_left (fun acc a -> seq acc a.asum) unit_summary infos in
          match (SMap.find name !(env.vars)).fn with
          | Some lf ->
              (* a locally-bound function: apply it *)
              (seq args_work (apply_lfun env lf infos), None)
          | None ->
              (* CPS axiom: a parameter-bound function value ([k
                 results], [lookup fd], the waker [f]) applies in O(1)
                 from this frame — continuations end frames, they do
                 not loop, and their bodies are accounted where they
                 are defined *)
              (args_work, None))
      | _ -> (
          match head_kind path with
          | Charge ->
              let infos = eval_args env args in
              let w = List.fold_left (fun acc a -> seq acc a.asum) unit_summary infos in
              (seq w { host = const; charged = const }, None)
          | Charge_run ->
              let infos = eval_args env args in
              let w = List.fold_left (fun acc a -> seq acc a.asum) unit_summary infos in
              let thunks =
                List.filter_map (fun a -> a.afn) infos
                |> List.map (fun lf -> apply_lfun env lf [])
              in
              (List.fold_left seq w thunks, None)
          | Charge_batch ->
              let infos = eval_args env args in
              let w = List.fold_left (fun acc a -> seq acc a.asum) unit_summary infos in
              let count_class =
                match
                  List.find_opt
                    (fun a -> match a.alabel with Labelled "count" -> true | _ -> false)
                    infos
                with
                | Some a -> a.acls
                | None -> top_at env e.pexp_loc "charge_batch without ~count"
              in
              env.batches :=
                { bloc = e.pexp_loc; buid = env.uid; bfile = env.file;
                  count_class; loop_class = loop_join env }
                :: !(env.batches);
              (seq w { host = const; charged = count_class }, None)
          | Iterate { coll; exits; res_is_coll = _ } ->
              eval_iterate env e path args ~coll ~exits
          | Length _ | Const_fn | Arith ->
              (* function-valued args are registered, not run (the
                 registration axiom) — only Charge_run thunks and
                 iterator callbacks are applied *)
              let infos = eval_args env args in
              let w = List.fold_left (fun acc a -> seq acc a.asum) unit_summary infos in
              (w, None)
          | Unknown -> (
              match Symbol_index.resolve_in env.index ~scope:env.scope path with
              | [] ->
                  let infos = eval_args env args in
                  let w = List.fold_left (fun acc a -> seq acc a.asum) unit_summary infos in
                  ( seq w
                      (top_summary env e.pexp_loc
                         (Printf.sprintf "unresolved call %s" (dotted path))),
                    None )
              | syms ->
                  (* function-valued args (continuations, subscription
                     callbacks) are registered, not run: the callee's
                     summary already accounts its own frame, and a
                     stored callback fires on driver edges, not here *)
                  let infos = eval_args env args in
                  let w = List.fold_left (fun acc a -> seq acc a.asum) unit_summary infos in
                  let callee =
                    List.fold_left
                      (fun acc (s : Symbol_index.symbol) ->
                        join_summary acc (apply_lfun env (Lsym s.uid) []))
                      unit_summary syms
                  in
                  (seq w callee, None))))
  | Pexp_field (r, _) ->
      (* axiom: a call through a record field is a stored callback
         ([w.Socket.wake mask]) or the O(1) arena access [t.lookup fd]
         is everywhere in this tree — O(1) from the applying frame *)
      let sr, _ = eval env r in
      let infos = eval_args env args in
      let w = List.fold_left (fun acc a -> seq acc a.asum) sr infos in
      (w, None)
  | _ -> (
      let sh, fh = eval env head in
      let infos = eval_args env args in
      let w = List.fold_left (fun acc a -> seq acc a.asum) sh infos in
      match fh with
      | Some lf -> (seq w (apply_lfun env lf infos), None)
      | None -> (seq w (top_summary env e.pexp_loc "opaque application"), None))

and eval_iterate env (e : expression) path args ~coll ~exits : summary * lfun option =
  let infos = eval_args env args in
  let positional = List.filter (fun a -> a.alabel = Nolabel) infos in
  let coll_info =
    match coll with
    | Pos i -> List.nth_opt positional i
    | LastArg -> ( match List.rev positional with a :: _ -> Some a | [] -> None)
  in
  let coll_class =
    match coll_info with
    | Some a -> a.acls
    | None -> top_at env e.pexp_loc (Printf.sprintf "%s without a collection argument" (dotted path))
  in
  (* callbacks: every function-valued argument other than the
     collection itself runs once per iteration *)
  let callbacks =
    List.filter_map
      (fun a ->
        match a.afn with
        | Some lf when (match coll_info with Some c -> not (c == a) | None -> true) -> Some lf
        | _ -> None)
      infos
  in
  let k =
    if not exits then coll_class
    else
      (* iter_while: the join of recognizable early-exit bounds caps
         the iteration count; none found -> the collection's class *)
      let from_callbacks =
        List.fold_left
          (fun acc lf ->
            match lf with
            | Lfun { fb = Pfunction_body b; _ } -> (
                match exit_classes env b with
                | Some c -> Some (match acc with None -> c | Some x -> join x c)
                | None -> acc)
            | Lfun { fb = Pfunction_cases (cases, _, _); _ } ->
                List.fold_left
                  (fun acc c ->
                    match exit_classes env c.pc_rhs with
                    | Some x -> Some (match acc with None -> x | Some y -> join y x)
                    | None -> acc)
                  acc cases
            | Lsym _ -> acc)
          None callbacks
      in
      match from_callbacks with Some c -> c | None -> coll_class
  in
  let step =
    step_at env e.pexp_loc
      (Printf.sprintf "%s loop, class %s" (dotted path) (render_cost k))
  in
  let args_work = List.fold_left (fun acc a -> seq acc a.asum) unit_summary infos in
  env.loop_stack <- k :: env.loop_stack;
  let body =
    List.fold_left
      (fun acc lf ->
        (* iteration callbacks receive single elements: bind their
           parameters to O(1) *)
        (match lf with
        | Lfun { fps; _ } ->
            List.iter
              (fun fp ->
                match fp.pparam_desc with
                | Pparam_val (_, _, pat) -> (
                    match Symbol_index.var_name pat with
                    | Some n -> bind env n { cls = const; fn = None }
                    | None -> ())
                | Pparam_newtype _ -> ())
              fps
        | Lsym _ -> ());
        seq acc (apply_lfun env lf []))
      unit_summary callbacks
  in
  env.loop_stack <- List.tl env.loop_stack;
  env.loops :=
    { lloc = e.pexp_loc; luid = env.uid; lfile = env.file; lhead = dotted path;
      lclass = k; body_charged = body.charged }
    :: !(env.loops);
  (seq args_work (mult_summary ~step k body), None)

(* ------------------------------------------------------------------ *)
(* Whole-tree fixpoint                                                *)
(* ------------------------------------------------------------------ *)

type result = {
  summaries : summary SMap.t;  (** symbol uid -> summary *)
  batches : batch_site list;  (** every charge_batch site, body order *)
  loops : loop_site list;  (** every recognized loop, body order *)
}

(* uids that can reach themselves through the callgraph: their
   summaries widen to top (module-level recursion has no syntactic
   bound we trust). *)
let recursive_uids (graph : Callgraph.t) =
  List.filter_map
    (fun (n : Callgraph.node) ->
      let rec bfs visited frontier =
        match frontier with
        | [] -> false
        | x :: rest ->
            if List.mem x visited then bfs visited rest
            else
              let nexts = Callgraph.callees graph x in
              if List.mem n.Callgraph.id nexts then true
              else bfs (x :: visited) (nexts @ rest)
      in
      if bfs [] n.callees then Some n.id else None)
    graph.Callgraph.nodes
  |> List.sort_uniq String.compare

let eval_symbol index summaries classes recursive (s : Symbol_index.symbol) =
  let env =
    {
      index;
      summaries;
      classes;
      scope = Symbol_index.scope_of s;
      file = s.file;
      uid = s.uid;
      vars = ref SMap.empty;
      loop_stack = [];
      fuel = 512;
      batches = ref [];
      loops = ref [];
    }
  in
  (* peel the parameter spine: the summary is the cost of one full
     application (or of evaluating the binding, for plain values);
     the result class is the body's class, computed after eval so it
     sees loop-promoted accumulator classes *)
  let rec peel (e : expression) =
    match e.pexp_desc with
    | Pexp_function (fps, _, fb) ->
        List.iter
          (fun fp ->
            match fp.pparam_desc with
            | Pparam_val (_, _, pat) -> bind_pattern_vocab env pat
            | Pparam_newtype _ -> ())
          fps;
        (match fb with
        | Pfunction_body b -> peel b
        | Pfunction_cases (cases, _, _) ->
            List.fold_left
              (fun (acc, accc) c ->
                let sg = match c.pc_guard with Some g -> fst (eval env g) | None -> unit_summary in
                let sb = fst (eval env c.pc_rhs) in
                (join_summary acc (seq sg sb), join accc (class_of env c.pc_rhs)))
              (unit_summary, const) cases)
    | Pexp_constraint (b, _) -> peel b
    | _ ->
        let s = fst (eval env e) in
        (s, class_of env e)
  in
  let sum, cls = peel s.body in
  let sum, cls =
    if List.mem s.uid recursive then
      let stp =
        {
          Finding.sfile = s.file;
          sline = s.line;
          scol = s.col;
          swhat = Printf.sprintf "recursive definition %s" (dotted s.qname);
        }
      in
      ({ host = Top [ stp ]; charged = Top [ stp ] }, Top [ stp ])
    else (sum, cls)
  in
  (sum, cls, List.rev !(env.batches), List.rev !(env.loops))

let max_sweeps = 64

let analyze ?graph (index : Symbol_index.t) : result =
  let graph = match graph with Some g -> g | None -> Callgraph.build index in
  let recursive = recursive_uids graph in
  let rec sweep n summaries classes =
    let batches = ref [] and loops = ref [] in
    let summaries', classes' =
      List.fold_left
        (fun (acc, accc) (s : Symbol_index.symbol) ->
          let sum, cls, bs, ls = eval_symbol index summaries classes recursive s in
          batches := bs :: !batches;
          loops := ls :: !loops;
          (SMap.add s.uid sum acc, SMap.add s.uid cls accc))
        (SMap.empty, SMap.empty) index.Symbol_index.symbols
    in
    if
      n >= max_sweeps
      || (SMap.equal (fun a b -> a = b) summaries summaries'
         && SMap.equal (fun a b -> a = b) classes classes')
    then
      { summaries = summaries';
        batches = List.concat (List.rev !batches);
        loops = List.concat (List.rev !loops) }
    else sweep (n + 1) summaries' classes'
  in
  sweep 1 SMap.empty SMap.empty

(* ------------------------------------------------------------------ *)
(* Entry points and the report                                        *)
(* ------------------------------------------------------------------ *)

(* Backend scan/wait entry points (exact qualified names): every one
   of these must carry a [@complexity] annotation the inferred host
   summary entails. *)
let entry_points =
  [
    [ "Poll"; "scan" ];
    [ "Poll"; "wait" ];
    [ "Poll"; "Pset"; "scan_set" ];
    [ "Poll"; "Pset"; "wait_set" ];
    [ "Select"; "scan" ];
    [ "Select"; "select" ];
    [ "Select"; "Sset"; "scan_sset" ];
    [ "Select"; "Sset"; "wait_sset" ];
    [ "Devpoll"; "scan" ];
    [ "Devpoll"; "dp_poll" ];
    [ "Epoll"; "harvest" ];
    [ "Epoll"; "wait" ];
    [ "Rt_signal"; "take" ];
    [ "Rt_signal"; "wait_general" ];
    [ "Rt_signal"; "sigwaitinfo" ];
    [ "Rt_signal"; "sigtimedwait4" ];
    [ "Kernel"; "poll" ];
    [ "Kernel"; "devpoll_wait" ];
    [ "Kernel"; "sigwaitinfo" ];
    [ "Kernel"; "sigtimedwait4" ];
  ]

let is_entry_point (s : Symbol_index.symbol) = List.mem s.qname entry_points

(* Deterministic whole-tree report: one line per symbol in (file,
   line, qname) order. Committed as test/lint_fixtures/
   complexity_report.txt so asymptotic drift shows up in review.
   Entries are keyed by file and qualified symbol, and a lost bound
   names the symbol it was lost in, not a line: an edit shows up as
   the entries it touches, not as every later line number moving.
   Anonymous top-level bindings print as "(toplevel)" for the same
   reason. *)
let report (index : Symbol_index.t) (r : result) : string =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "# sio_lint complexity report — host=structural work, charged=simulated CPU\n";
  Buffer.add_string buf
    "# size classes: ready <= active <= interests; conns, slots incomparable\n";
  let name (s : Symbol_index.symbol) =
    dotted
      (List.map
         (fun n -> if String.starts_with ~prefix:"(toplevel:" n then "(toplevel)" else n)
         s.qname)
  in
  let encloses (s : Symbol_index.symbol) (st : Finding.step) =
    let pos (p : Lexing.position) = (p.pos_lnum, p.pos_cnum - p.pos_bol) in
    String.equal s.file st.sfile
    && pos s.loc.loc_start <= (st.sline, st.scol)
    && (st.sline, st.scol) <= pos s.loc.loc_end
  in
  let origin = function
    | Top (st :: _) ->
        let where =
          match List.find_opt (fun s -> encloses s st) index.Symbol_index.symbols with
          | Some s -> name s
          | None -> Printf.sprintf "%s:%d" st.sfile st.sline
        in
        Printf.sprintf "O(top) <- %s in %s" st.swhat where
    | c -> render_cost_origin c
  in
  let syms =
    List.sort
      (fun (a : Symbol_index.symbol) (b : Symbol_index.symbol) ->
        compare (a.file, a.line, a.col, a.qname) (b.file, b.line, b.col, b.qname))
      index.Symbol_index.symbols
  in
  List.iter
    (fun (s : Symbol_index.symbol) ->
      match SMap.find_opt s.uid r.summaries with
      | None -> ()
      | Some sum ->
          Buffer.add_string buf
            (Printf.sprintf "%s: %s: host=%s charged=%s%s\n" s.file (name s)
               (origin sum.host) (origin sum.charged)
               (match s.annot with
               | Some a -> Printf.sprintf " annot=%S" a
               | None -> "")))
    syms;
  Buffer.contents buf
