(* Render tracer snapshots as "explain" text: rule and field histograms
   first (the per-update AFF provenance), then the event log. Events are
   printed with the ring's logical sequence numbers, so renderings of
   seeded runs are byte-for-byte deterministic — no wall-clock reads
   anywhere in this module. *)

let pp_event ppf (e : Tracer.entry) =
  match e.Tracer.event with
  | Tracer.Aff_enter { node; rule } ->
      Format.fprintf ppf "#%-6d aff_enter        node=%d rule=%s" e.Tracer.seq
        node (Tracer.rule_name rule)
  | Tracer.Cert_rewrite { node; field; before; after } ->
      Format.fprintf ppf "#%-6d cert_rewrite     node=%d %s: %s -> %s"
        e.Tracer.seq node field before after
  | Tracer.Frontier_expand { node } ->
      Format.fprintf ppf "#%-6d frontier_expand  node=%d" e.Tracer.seq node
  | Tracer.Span_begin name ->
      Format.fprintf ppf "#%-6d span_begin       %s" e.Tracer.seq name
  | Tracer.Span_end name ->
      Format.fprintf ppf "#%-6d span_end         %s" e.Tracer.seq name
  | Tracer.Compaction { edges; overlay } ->
      Format.fprintf ppf "#%-6d compaction       edges=%d overlay=%d"
        e.Tracer.seq edges overlay
  | Tracer.Slo_violation { rule; value; limit } ->
      Format.fprintf ppf "#%-6d SLO VIOLATION    rule=%s value=%g limit=%g"
        e.Tracer.seq rule value limit

(* Per-rule counts of the Aff_enter events, sorted by rule name: the
   provenance histogram [incgraph explain] prints per update. *)
let rule_histogram (snap : Tracer.snapshot) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.Tracer.event with
      | Tracer.Aff_enter { rule; _ } ->
          let k = Tracer.rule_name rule in
          Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      | _ -> ())
    snap.Tracer.entries;
  Obs.sorted_bindings ~compare:String.compare tbl

(* Per-field counts of certificate rewrites. *)
let field_histogram (snap : Tracer.snapshot) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.Tracer.event with
      | Tracer.Cert_rewrite { field; _ } ->
          Hashtbl.replace tbl field
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl field))
      | _ -> ())
    snap.Tracer.entries;
  Obs.sorted_bindings ~compare:String.compare tbl

(* Histograms first (the provenance summary), then up to [limit] raw
   events. [limit < 0] prints everything. *)
let pp_explain ?(limit = 20) ppf (snap : Tracer.snapshot) =
  let n = List.length snap.Tracer.entries in
  Format.fprintf ppf "@[<v>%d event(s)%s@," n
    (if snap.Tracer.drops > 0 then
       Printf.sprintf " (ring buffer dropped %d older)" snap.Tracer.drops
     else "");
  (match rule_histogram snap with
  | [] -> Format.fprintf ppf "AFF provenance: none (no node entered AFF)@,"
  | hist ->
      Format.fprintf ppf "AFF provenance (rule -> nodes):@,";
      List.iter
        (fun (r, c) -> Format.fprintf ppf "  %-22s %6d@," r c)
        hist);
  (match field_histogram snap with
  | [] -> ()
  | hist ->
      Format.fprintf ppf "certificate rewrites (field -> count):@,";
      List.iter
        (fun (f, c) -> Format.fprintf ppf "  %-22s %6d@," f c)
        hist);
  (* SLO breaches are the events an operator is hunting for — surface them
     even when the raw log below is truncated. *)
  let violations =
    List.filter
      (fun e ->
        match e.Tracer.event with Tracer.Slo_violation _ -> true | _ -> false)
      snap.Tracer.entries
  in
  if violations <> [] then begin
    Format.fprintf ppf "SLO violations (%d):@," (List.length violations);
    List.iter (fun e -> Format.fprintf ppf "  %a@," pp_event e) violations
  end;
  let shown =
    if limit < 0 || n <= limit then snap.Tracer.entries
    else List.filteri (fun i _ -> i < limit) snap.Tracer.entries
  in
  if shown <> [] then begin
    Format.fprintf ppf "event log%s:@,"
      (if List.length shown < n then
         Printf.sprintf " (first %d of %d)" (List.length shown) n
       else "");
    List.iter (fun e -> Format.fprintf ppf "  %a@," pp_event e) shown
  end;
  Format.fprintf ppf "@]"

let explain_to_string ?limit snap =
  Format.asprintf "%a" (pp_explain ?limit) snap
