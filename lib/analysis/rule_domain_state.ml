(* domain-safety: module-level mutable state must not be written from
   Domain_pool task code — a real race check, not a per-file guess.

   Anything bound at module level lives once per program, and since
   PR 1 library code runs on [Sio_sim.Domain_pool] workers. The old
   rule flagged every module-level [ref]/[Hashtbl.t]/[Buffer.t]
   declaration on sight; this one only fires when the whole-program
   analysis finds an actual *write* ([:=], [<-], [Hashtbl.replace],
   [Buffer.add_*], ...) to that binding inside code reachable from a
   Domain_pool task root ([Domain_pool.submit]/[map], [Figures.run],
   [Cluster.run] — the task closures live inside those bodies). A
   write-once lookup table in a single-domain example is no longer a
   false positive; an [include struct ... end] no longer hides state
   (the index recurses into it). [Atomic.make] is the sanctioned
   alternative; a binding that is provably confined can still carry
   [@lint.ignore "reason"], audited by stale-ignore. Only syntactically
   recognisable constructors are tracked — a module-level record with
   mutable fields needs type information we do not have. *)

let id = "module-state"

let doc =
  "module-level mutable state (ref/Hashtbl/Queue/Buffer/...) written on a \
   Domain_pool-reachable path races across workers; use Atomic.t or annotate \
   the binding [@lint.ignore]"

let check ~ctx ~path _str =
  let writes = Context.domain_writes ctx in
  Symbol_index.file_symbols (Context.index ctx) path
  |> List.filter_map (fun (b : Symbol_index.symbol) ->
         match b.mutable_ctor with
         | None -> None
         | Some ctor ->
             if b.suppressed && not ctx.Context.audit then None
             else begin
               match Context.SMap.find_opt b.uid writes with
               | None | Some [] -> None
               | Some (e :: rest) ->
                   let more =
                     match List.length rest with
                     | 0 -> ""
                     | n -> Printf.sprintf " [+%d more write site(s)]" n
                   in
                   let name = match List.rev b.qname with n :: _ -> n | [] -> "?" in
                   Some
                     (Finding.make ~loc:b.loc ~rule:id
                        (Printf.sprintf
                           "module-level mutable state `%s` (%s) is written on a \
                            Domain_pool-reachable path: `%s` (%s:%d, %s) runs in \
                            task code reachable from `%s`%s; use Atomic.t or \
                            annotate the binding [@lint.ignore \"reason\"]."
                           name ctor e.Context.writer e.Context.writer_file
                           e.Context.wline e.Context.op
                           (Context.display ctx e.Context.root)
                           more))
             end)

let warm ctx = ignore (Context.domain_writes ctx)
let rule = { Rule.id; doc; check; warm }
