(* nondet-taint: host-side nondeterminism must never reach a
   byte-identity sink.

   The repository's core claim is that every figure CSV and the
   bench-smoke fingerprint are pure functions of the seed. Host-side
   measurements are deliberately *allowed* — RSS and wall clock go
   into JSON report fields — so the invariant is not "no
   nondeterminism" but "no flow from a nondeterministic source into a
   deterministic sink". This rule proves that flow absent with an
   abstract interpretation over [Dataflow]:

   sources (each a taint kind):
     - host-rss:      Host_mem.rss_bytes
     - host-clock:    Unix.gettimeofday / Unix.time / Sys.time
     - procfs-read:   open_in (and friends) on a "/proc..." literal
     - hashtbl-iter:  Hashtbl.fold / Hashtbl.to_seq* enumeration order
   sinks:
     - Report.csv_of_series (every figure's CSV, whatever its axis)
     - any definition or call head named [fingerprint] (the
       bench-smoke byte-identity comparison)

   Two checks share the machinery:

   A. sink-region purity — a sink definition must not *transitively
      call* code that performs a source read. Per-definition source
      events seed the [Dataflow] engine; a sink holding a fact is a
      finding whose flow replays sink -> ... -> source. (hashtbl-iter
      is excluded here: enumerating inside a sink is fine if sorted,
      which is a value property, not a call-graph one.)

   B. tainted argument — a sink call whose argument's abstract value
      carries taint is a finding at the call site. Values are
      propagated per-function with interprocedural summaries; a field
      assigned a tainted value taints that *field name* globally, so
      taint survives record round-trips (this is what makes
      [Experiment.host_rss_bytes] radioactive everywhere while the
      record holding it stays usable); [List.sort*] erases the
      hashtbl-iter kind (a sorted enumeration is deterministic).

   Both honour [@lint.ignore]: suppressed expressions contribute no
   sources and no taint. The fixpoint is bounded and deterministic —
   joins prefer the shortest provenance path with a structural
   tie-break, sweeps stop when summaries and the field table are
   stable. *)

module Df = Dataflow
open Ppxlib
module SMap = Map.Make (String)

let id = "nondet-taint"

let doc =
  "host-side nondeterminism (RSS, wall clock, /proc reads, unsorted Hashtbl \
   enumeration) must never flow into a byte-identity sink (Report.csv_of_*, the \
   bench fingerprint)"

let kind_host_rss = "host-rss"
let kind_clock = "host-clock"
let kind_procfs = "procfs-read"
let kind_hashtbl = "hashtbl-iter"

let kind_label = function
  | "host-rss" -> "host RSS measurement (Host_mem.rss_bytes)"
  | "host-clock" -> "host wall clock"
  | "procfs-read" -> "/proc read"
  | "hashtbl-iter" -> "unsorted Hashtbl enumeration"
  | k -> k

let source_specs =
  [
    ([ "Host_mem"; "rss_bytes" ], kind_host_rss);
    ([ "Unix"; "gettimeofday" ], kind_clock);
    ([ "Unix"; "time" ], kind_clock);
    ([ "Sys"; "time" ], kind_clock);
    ([ "Hashtbl"; "fold" ], kind_hashtbl);
    ([ "Hashtbl"; "to_seq" ], kind_hashtbl);
    ([ "Hashtbl"; "to_seq_keys" ], kind_hashtbl);
    ([ "Hashtbl"; "to_seq_values" ], kind_hashtbl);
  ]

let source_kind p =
  List.find_map
    (fun (spec, k) -> if Context.mention_matches [ spec ] p then Some k else None)
    source_specs

(* Suffix match that, unlike [Context.mention_matches], lets a
   single-segment spec match qualified references too: [fingerprint]
   is a naming convention, whatever module holds it. *)
let suffix_matches spec p =
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: xs, y :: ys -> String.equal x y && prefix xs ys
    | _ :: _, [] -> false
  in
  p <> [] && prefix (List.rev spec) (List.rev p)

let sink_specs =
  [ [ "Report"; "csv_of_series" ]; [ "fingerprint" ] ]

let is_sink_path p = List.exists (fun spec -> suffix_matches spec p) sink_specs
let is_sink_symbol (s : Symbol_index.symbol) = is_sink_path s.qname

(* Sorting erases enumeration-order nondeterminism. *)
let sanitizer_heads =
  [
    [ "List"; "sort" ];
    [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
    [ "List"; "sort_uniq" ];
  ]

let is_sanitizer p = List.exists (fun spec -> suffix_matches spec p) sanitizer_heads

(* ---- abstract values: taint kind -> provenance path ---- *)

type av = Finding.step list SMap.t

let bot : av = SMap.empty

let step_of (loc : Location.t) what =
  let p = loc.loc_start in
  {
    Finding.sfile = p.pos_fname;
    sline = p.pos_lnum;
    scol = p.pos_cnum - p.pos_bol;
    swhat = what;
  }

(* Shortest provenance wins; structural compare breaks ties, so the
   join is deterministic whatever order contributors arrive in. *)
let path_le a b =
  let la = List.length a and lb = List.length b in
  if la <> lb then la < lb else compare a b <= 0

let join : av -> av -> av =
  SMap.union (fun _ pa pb -> Some (if path_le pa pb then pa else pb))

let joins l = List.fold_left join bot l
let prefix st (v : av) = SMap.map (fun p -> Df.clip (st :: p)) v
let av_eq : av -> av -> bool = SMap.equal (fun a b -> a = b)

(* ---- per-run mutable state, rebuilt by each fixpoint sweep ---- *)

type state = {
  mutable summaries : av SMap.t;  (* symbol uid -> return-value abstract value *)
  mutable fields : av SMap.t;  (* record field name -> taint at any construction *)
  mutable events : (string * Finding.step list) list SMap.t;
      (* symbol uid -> source events performed in its body *)
  mutable site_findings : Finding.t list;  (* check B, re-emitted per sweep *)
}

type env = {
  index : Symbol_index.t;
  scope : string list;  (* module path of the definition being evaluated *)
  self : string;  (* uid of the definition being evaluated *)
  st : state;
}

let record_event env kind path =
  env.st.events <-
    SMap.update env.self
      (function None -> Some [ (kind, path) ] | Some l -> Some (l @ [ (kind, path) ]))
      env.st.events

let field_name lid = match List.rev (Rule.path_of_lid lid) with f :: _ -> f | [] -> ""

let rec pat_vars p acc =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p', { txt; _ }) -> pat_vars p' (txt :: acc)
  | Ppat_tuple ps -> List.fold_left (fun acc p -> pat_vars p acc) acc ps
  | Ppat_construct (_, Some (_, p')) -> pat_vars p' acc
  | Ppat_variant (_, Some p') -> pat_vars p' acc
  | Ppat_record (fps, _) -> List.fold_left (fun acc (_, p) -> pat_vars p acc) acc fps
  | Ppat_array ps -> List.fold_left (fun acc p -> pat_vars p acc) acc ps
  | Ppat_or (a, b) -> pat_vars a (pat_vars b acc)
  | Ppat_constraint (p', _) -> pat_vars p' acc
  | Ppat_lazy p' | Ppat_exception p' | Ppat_open (_, p') -> pat_vars p' acc
  | _ -> acc

let bind_bot vars pat =
  List.fold_left (fun acc x -> SMap.add x bot acc) vars (pat_vars pat [])

(* Abstract evaluation of one expression. [vars] maps local names to
   abstract values (function parameters enter at bottom — summaries
   already over-approximate what flows back out); [depth] counts
   enclosing [@lint.ignore] scopes: suppressed code reads as clean. *)
let rec eval env vars depth e : av =
  let depth = if Rule.has_ignore e.pexp_attributes then depth + 1 else depth in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Rule.path_of_lid txt with
      | [] -> bot
      | [ x ] when SMap.mem x vars -> SMap.find x vars
      | p -> ident_av env depth e.pexp_loc p)
  | Pexp_constant _ | Pexp_unreachable -> bot
  | Pexp_let (_, vbs, body) ->
      let vars' =
        List.fold_left
          (fun acc vb ->
            let d = if Rule.has_ignore vb.pvb_attributes then depth + 1 else depth in
            let v = eval env vars d vb.pvb_expr in
            List.fold_left (fun acc x -> SMap.add x v acc) acc (pat_vars vb.pvb_pat []))
          vars vbs
      in
      eval env vars' depth body
  | Pexp_function (params, _, fbody) ->
      let vars' =
        List.fold_left
          (fun acc p ->
            match p.pparam_desc with
            | Pparam_val (_, _, pat) -> bind_bot acc pat
            | Pparam_newtype _ -> acc)
          vars params
      in
      (match fbody with
      | Pfunction_body b -> eval env vars' depth b
      | Pfunction_cases (cases, _, attrs) ->
          let depth = if Rule.has_ignore attrs then depth + 1 else depth in
          joins (List.map (eval_case env vars' depth bot) cases))
  | Pexp_apply (head, args) -> eval_apply env vars depth head args
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let sv = eval env vars depth scrut in
      joins (List.map (eval_case env vars depth sv) cases)
  | Pexp_tuple es | Pexp_array es -> joins (List.map (eval env vars depth) es)
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
      match arg with Some a -> eval env vars depth a | None -> bot)
  | Pexp_record (fs, base) ->
      let bv = match base with Some b -> eval env vars depth b | None -> bot in
      List.iter
        (fun (({ txt; _ } : Longident.t loc), fe) ->
          let fv = eval env vars depth fe in
          if depth = 0 && not (SMap.is_empty fv) then store_field env fe.pexp_loc txt fv)
        fs;
      bv
  | Pexp_field (r, { txt; _ }) ->
      let rv = eval env vars depth r in
      let fname = field_name txt in
      (match SMap.find_opt fname env.st.fields with
      | None -> rv
      | Some fv when depth = 0 ->
          let st = step_of e.pexp_loc (Printf.sprintf "read of tainted field %s" fname) in
          let fv = prefix st fv in
          SMap.iter (fun kind path -> record_event env kind path) fv;
          join rv fv
      | Some _ -> rv)
  | Pexp_setfield (r, { txt; _ }, v) ->
      ignore (eval env vars depth r);
      let fv = eval env vars depth v in
      if depth = 0 && not (SMap.is_empty fv) then store_field env v.pexp_loc txt fv;
      bot
  | Pexp_ifthenelse (c, t, f) ->
      ignore (eval env vars depth c);
      joins
        (eval env vars depth t :: (match f with Some f -> [ eval env vars depth f ] | None -> []))
  | Pexp_sequence (a, b) ->
      ignore (eval env vars depth a);
      eval env vars depth b
  | Pexp_while (c, b) ->
      ignore (eval env vars depth c);
      ignore (eval env vars depth b);
      bot
  | Pexp_for (pat, lo, hi, _, b) ->
      ignore (eval env vars depth lo);
      ignore (eval env vars depth hi);
      ignore (eval env (bind_bot vars pat) depth b);
      bot
  | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) -> eval env vars depth e'
  | Pexp_assert e' ->
      ignore (eval env vars depth e');
      bot
  | Pexp_lazy e' | Pexp_open (_, e') | Pexp_newtype (_, e') | Pexp_letexception (_, e') ->
      eval env vars depth e'
  | Pexp_letmodule (_, _, e') -> eval env vars depth e'
  | Pexp_letop { let_; ands; body; _ } ->
      let bound =
        joins (List.map (fun b -> eval env vars depth b.pbop_exp) (let_ :: ands))
      in
      let vars' =
        List.fold_left
          (fun acc b ->
            List.fold_left (fun acc x -> SMap.add x bound acc) acc (pat_vars b.pbop_pat []))
          vars (let_ :: ands)
      in
      eval env vars' depth body
  | _ -> bot

and eval_case env vars depth sv c =
  let vars' =
    List.fold_left (fun acc x -> SMap.add x sv acc) vars (pat_vars c.pc_lhs [])
  in
  Option.iter (fun g -> ignore (eval env vars' depth g)) c.pc_guard;
  eval env vars' depth c.pc_rhs

and ident_av env depth loc p =
  if depth > 0 then bot
  else
    match source_kind p with
    | Some kind ->
        let st = step_of loc (String.concat "." p) in
        record_event env kind [ st ];
        SMap.singleton kind [ st ]
    | None ->
        Symbol_index.resolve_in env.index ~scope:env.scope p
        |> List.map (fun (s : Symbol_index.symbol) ->
               match SMap.find_opt s.uid env.st.summaries with
               | None -> bot
               | Some sv when SMap.is_empty sv -> bot
               | Some sv -> prefix (step_of loc (String.concat "." s.qname)) sv)
        |> joins

and store_field env loc lid fv =
  let fname = field_name lid in
  if not (String.equal fname "") then begin
    let st = step_of loc (Printf.sprintf "stored in field %s" fname) in
    env.st.fields <- SMap.update fname (function
      | None -> Some (prefix st fv)
      | Some old -> Some (join old (prefix st fv)))
      env.st.fields
  end

and eval_apply env vars depth head args =
  let arg_avs = List.map (fun (_, a) -> eval env vars depth a) args in
  let head_path =
    match head.pexp_desc with
    | Pexp_ident { txt; _ } -> Rule.path_of_lid txt
    | _ -> []
  in
  let hv = eval env vars depth head in
  let v = joins (hv :: arg_avs) in
  (* /proc reads are a source at the call, not the ident: the hazard
     is the file being read, carried by the literal argument. *)
  let v =
    let is_proc_literal (_, a) =
      match a.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) ->
          String.length s >= 5 && String.equal (String.sub s 0 5) "/proc"
      | _ -> false
    in
    match head_path with
    | ([ ("open_in" | "open_in_bin") ] | [ "In_channel"; ("open_text" | "open_bin") ])
      when depth = 0 && List.exists is_proc_literal args ->
        let st = step_of head.pexp_loc (String.concat "." head_path ^ " \"/proc/...\"") in
        record_event env kind_procfs [ st ];
        join (SMap.singleton kind_procfs [ st ]) v
    | _ -> v
  in
  let v = if is_sanitizer head_path then SMap.remove kind_hashtbl v else v in
  (* check B: a sink call fed a tainted argument. *)
  if depth = 0 && is_sink_path head_path then begin
    let argv = joins arg_avs in
    SMap.iter
      (fun kind path ->
        let sink_name = String.concat "." head_path in
        let st = step_of head.pexp_loc (Printf.sprintf "argument of %s" sink_name) in
        let flow = Df.clip (st :: path) in
        env.st.site_findings <-
          Finding.make ~flow ~loc:head.pexp_loc ~rule:id
            (Printf.sprintf
               "%s flows into byte-identity sink %s as an argument, so the output is no \
                longer a pure function of the seed; keep host measurements in JSON \
                report fields (or sort the enumeration) instead. flow: %s"
               (kind_label kind) sink_name
               (Df.path_to_string flow))
          :: env.st.site_findings)
      argv
  end;
  v

(* ---- whole-program fixpoint + the two checks ---- *)

let compute (index : Symbol_index.t) (graph : Callgraph.t) =
  let st =
    { summaries = SMap.empty; fields = SMap.empty; events = SMap.empty; site_findings = [] }
  in
  let sweep () =
    st.events <- SMap.empty;
    st.site_findings <- [];
    List.iter
      (fun (s : Symbol_index.symbol) ->
        let env =
          {
            index;
            scope = Symbol_index.scope_of s;
            self = s.uid;
            st;
          }
        in
        let depth = if s.suppressed then 1 else 0 in
        let v = eval env SMap.empty depth s.body in
        st.summaries <- SMap.add s.uid v st.summaries)
      index.symbols
  in
  let stable = ref false in
  let sweeps = ref 0 in
  (* Termination: kinds per summary/field only grow (joins never drop a
     kind except the sanitizer, which is applied consistently), paths
     are clipped, and the sweep count is capped as a backstop. *)
  while (not !stable) && !sweeps < 64 do
    incr sweeps;
    let prev_sum = st.summaries and prev_fields = st.fields in
    sweep ();
    stable :=
      SMap.equal av_eq st.summaries prev_sum && SMap.equal av_eq st.fields prev_fields
  done;
  (* check A: sink-region purity over the callgraph. *)
  let call_step = Df.call_step_of_index index in
  let order = List.map (fun (s : Symbol_index.symbol) -> s.uid) index.symbols in
  let region_kinds = [ kind_host_rss; kind_clock; kind_procfs ] in
  let seeds uid =
    match SMap.find_opt uid st.events with
    | None -> []
    | Some evs -> List.filter (fun (k, _) -> List.mem k region_kinds) evs
  in
  let table = Df.solve ~order ~callees:(Callgraph.callees graph) ~call_step ~seeds in
  let region_findings =
    index.symbols
    |> List.filter is_sink_symbol
    |> List.concat_map (fun (s : Symbol_index.symbol) ->
           Df.facts table s.uid |> SMap.bindings
           |> List.map (fun (kind, path) ->
                  let qname = String.concat "." s.qname in
                  let flow = Df.clip (step_of s.loc qname :: path) in
                  Finding.make ~flow ~loc:s.loc ~rule:id
                    (Printf.sprintf
                       "byte-identity sink %s transitively performs a %s along resolved \
                        calls, so its output depends on the host; move the measurement \
                        out of the sink's call region (JSON report fields are the \
                        sanctioned home). flow: %s"
                       qname (kind_label kind)
                       (Df.path_to_string flow))))
  in
  region_findings @ st.site_findings

(* One computation per context: rules run per file, the analysis is
   whole-program. Physical equality is the right cache key — the
   driver builds exactly one context per run. Parallel per-file
   passes are safe because the driver warms this cache before fanning
   out: workers only ever hit the [c == ctx] read path. *)
let cache : (Context.t * Finding.t list) option ref = ref None

let findings_for ctx =
  match !cache with
  | Some (c, fs) when c == ctx -> fs
  | _ ->
      let fs = compute (Context.index ctx) (Context.graph ctx) in
      cache := Some (ctx, fs);
      fs

let check ~ctx ~path str =
  let findings =
    if ctx.Context.audit then begin
      (* Audit mode: the stale-ignore shadow run hands us this file
         with suppressions stripped; re-derive the whole-program state
         with the stripped AST substituted so the masked flows
         surface. *)
      let files =
        List.map
          (fun (f, s) -> if String.equal f path then (f, str) else (f, s))
          ctx.Context.files
      in
      let index = Symbol_index.build files in
      compute index (Callgraph.build index)
    end
    else findings_for ctx
  in
  List.filter (fun (f : Finding.t) -> String.equal f.file path) findings

let warm ctx = ignore (findings_for ctx)
let rule = { Rule.id; doc; check; warm }
