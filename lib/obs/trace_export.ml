(* Export tracer snapshots.

   Two renderings of the same [Tracer.snapshot]:

   - Chrome trace-event JSON (the "JSON Array Format" with a [traceEvents]
     wrapper object), loadable in Perfetto / chrome://tracing. Span
     begin/end become "B"/"E" duration events; Aff_enter, Cert_rewrite and
     Frontier_expand become thread-scoped instant events ("ph": "i") whose
     [args] carry the provenance (node, rule, field, before/after).
     Timestamps are the tracer's logical sequence numbers (1 event = 1 µs),
     so exports of seeded runs are byte-for-byte deterministic — no
     wall-clock reads anywhere in this module.

   - A human-readable "explain" rendering: rule and field histograms first
     (the per-update AFF provenance), then the event log.

   [validate] is the structural checker behind bench/validate.exe and the
   @trace-smoke alias: traceEvents must be a well-formed event array, B/E
   spans must nest, timestamps must be non-decreasing, and every aff_enter
   instant must carry a rule tag. *)

module J = Json

(* ---- Chrome trace-event emission ----------------------------------------- *)

let base ~name ~cat ~ph ~ts ~pid ~tid extra =
  J.Obj
    ([
       ("name", J.Str name);
       ("cat", J.Str cat);
       ("ph", J.Str ph);
       ("ts", J.Int ts);
       ("pid", J.Int pid);
       ("tid", J.Int tid);
     ]
    @ extra)

let instant ~name ~cat ~ts ~pid ~tid args =
  base ~name ~cat ~ph:"i" ~ts ~pid ~tid
    [ ("s", J.Str "t"); ("args", J.Obj args) ]

let event_json ~pid ~tid (e : Tracer.entry) =
  let ts = e.Tracer.seq in
  match e.Tracer.event with
  | Tracer.Span_begin name -> base ~name ~cat:"engine" ~ph:"B" ~ts ~pid ~tid []
  | Tracer.Span_end name -> base ~name ~cat:"engine" ~ph:"E" ~ts ~pid ~tid []
  | Tracer.Aff_enter { node; rule } ->
      instant ~name:"aff_enter" ~cat:"aff" ~ts ~pid ~tid
        [ ("node", J.Int node); ("rule", J.Str (Tracer.rule_name rule)) ]
  | Tracer.Cert_rewrite { node; field; before; after } ->
      instant ~name:"cert_rewrite" ~cat:"cert" ~ts ~pid ~tid
        [
          ("node", J.Int node);
          ("field", J.Str field);
          ("before", J.Str before);
          ("after", J.Str after);
        ]
  | Tracer.Frontier_expand { node } ->
      instant ~name:"frontier_expand" ~cat:"frontier" ~ts ~pid ~tid
        [ ("node", J.Int node) ]
  | Tracer.Compaction { edges; overlay } ->
      instant ~name:"compaction" ~cat:"storage" ~ts ~pid ~tid
        [ ("edges", J.Int edges); ("overlay", J.Int overlay) ]
  | Tracer.Slo_violation { rule; value; limit } ->
      instant ~name:"slo_violation" ~cat:"slo" ~ts ~pid ~tid
        [ ("rule", J.Str rule); ("value", J.Float value); ("limit", J.Float limit) ]

let to_chrome ?(pid = 0) ?(tid = 0) ~name (snap : Tracer.snapshot) =
  let meta =
    J.Obj
      [
        ("name", J.Str "process_name");
        ("ph", J.Str "M");
        ("pid", J.Int pid);
        ("tid", J.Int tid);
        ("args", J.Obj [ ("name", J.Str name) ]);
      ]
  in
  J.Obj
    [
      ( "traceEvents",
        J.Arr (meta :: List.map (event_json ~pid ~tid) snap.Tracer.entries) );
      ("displayTimeUnit", J.Str "ms");
      ( "otherData",
        J.Obj
          [
            ("tool", J.Str "incgraph");
            ("dropped_events", J.Int snap.Tracer.drops);
          ] );
    ]

let write_chrome ~path ?pid ?tid ~name snap =
  let oc = (open_out [@lint.allow "D3"]) path in
  output_string oc (J.to_string ~indent:true (to_chrome ?pid ?tid ~name snap));
  output_char oc '\n';
  close_out oc

(* ---- validation ----------------------------------------------------------- *)

(* Returns the number of trace events on success. *)
let validate json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* events =
    match Option.bind (J.member "traceEvents" json) J.to_list_opt with
    | Some es -> Ok es
    | None -> Error "missing or ill-typed \"traceEvents\" array"
  in
  let str k e = Option.bind (J.member k e) J.to_str_opt in
  let int k e = Option.bind (J.member k e) J.to_int_opt in
  let known_ph = [ "B"; "E"; "i"; "I"; "M"; "X" ] in
  let check_one (i, last_ts, stack) e =
    let where what = Error (Printf.sprintf "event %d: %s" i what) in
    match (str "name" e, str "ph" e) with
    | None, _ -> where "missing \"name\""
    | _, None -> where "missing \"ph\""
    | Some name, Some ph ->
        if not (List.mem ph known_ph) then
          where (Printf.sprintf "unknown phase %S" ph)
        else if ph = "M" then Ok (i + 1, last_ts, stack)
        else begin
          match (int "ts" e, int "pid" e, int "tid" e) with
          | None, _, _ -> where "missing integer \"ts\""
          | _, None, _ | _, _, None -> where "missing integer \"pid\"/\"tid\""
          | Some ts, Some _, Some _ ->
              if ts < last_ts then
                where
                  (Printf.sprintf "timestamp went backwards (%d after %d)" ts
                     last_ts)
              else
                let* stack =
                  match ph with
                  | "B" -> Ok (name :: stack)
                  | "E" -> (
                      match stack with
                      | top :: rest when top = name -> Ok rest
                      | top :: _ ->
                          where
                            (Printf.sprintf "span %S closed while %S is open"
                               name top)
                      | [] ->
                          (* Tolerated: a wrapped ring buffer can lose the
                             matching B of an early span. *)
                          Ok [])
                  | _ -> Ok stack
                in
                let* () =
                  if name = "aff_enter" then
                    match
                      Option.bind (J.member "args" e) (fun a ->
                          match (str "rule" a, int "node" a) with
                          | Some r, Some _ when r <> "" -> Some r
                          | _ -> None)
                    with
                    | Some _ -> Ok ()
                    | None -> where "aff_enter without a rule tag / node"
                  else Ok ()
                in
                let* () =
                  if name = "slo_violation" then
                    match
                      Option.bind (J.member "args" e) (fun a ->
                          match str "rule" a with
                          | Some r when r <> "" -> Some r
                          | _ -> None)
                    with
                    | Some _ -> Ok ()
                    | None -> where "slo_violation without a rule tag"
                  else Ok ()
                in
                Ok (i + 1, ts, stack)
        end
  in
  let* n, _, _ =
    List.fold_left
      (fun acc e ->
        let* st = acc in
        check_one st e)
      (Ok (0, min_int, []))
      events
  in
  (* Leftover open spans are tolerated (a trace can end mid-span when the
     engine is snapshotted inside a batch); crossed spans were rejected
     above. *)
  Ok n

(* ---- explain rendering ----------------------------------------------------- *)

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
