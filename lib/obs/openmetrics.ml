(* OpenMetrics / Prometheus text exposition for the Obs registry.

   One rendering ([render]) and its structural inverse ([samples] /
   [validate]). Counters become [<name>_total] with a counter TYPE,
   gauges stay bare, span aggregates become labelled counter families,
   and every log-bucketed [Histogram] becomes a native Prometheus
   histogram: cumulative [le] buckets whose edges are the upper bounds of
   the non-empty log buckets, a [+Inf] bucket, [_sum] and [_count]. The
   exposition ends with the mandatory [# EOF] marker.

   Determinism: with [~deterministic:true] every clock- or GC-derived
   series is dropped — span seconds (span call counts stay) and any
   histogram whose name ends in [_s] or starts with [gc_]. What
   remains (counters, gauges, work histograms such as
   [csr_compact_bytes]) is a pure function of the update sequence, so
   two runs of the same workload render byte-identical text regardless
   of hash seed or machine speed. The flight recorder uses this mode
   under @trace-determinism. *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* Legal metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. *)
let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri (fun i c -> if not (is_name_char c) then Bytes.set b i '_') b;
  let s = Bytes.to_string b in
  if s = "" then "_"
  else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* Canonical float spelling: integers without a point, everything else
   at full round-trip precision — byte-stable for equal inputs. *)
let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Series whose values depend on the clock or the GC rather than on the
   update sequence alone; the deterministic rendering drops them. *)
let clock_derived name =
  let n = String.length name in
  (n >= 2 && String.sub name (n - 2) 2 = "_s")
  || (n >= 3 && String.sub name 0 3 = "gc_")

let render ?(deterministic = false) obs =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  List.iter
    (fun (k, v) ->
      let n = sanitize k in
      line "# TYPE %s counter" n;
      line "%s_total %d" n v)
    (Obs.counters obs);
  List.iter
    (fun (k, v) ->
      let n = sanitize k in
      line "# TYPE %s gauge" n;
      line "%s %d" n v)
    (Obs.gauges obs);
  (match Obs.spans obs with
  | [] -> ()
  | ss ->
      line "# TYPE ig_span_calls counter";
      List.iter
        (fun (k, (n, _)) ->
          line "ig_span_calls_total{span=\"%s\"} %d" (escape_label k) n)
        ss;
      if not deterministic then begin
        line "# TYPE ig_span_seconds counter";
        List.iter
          (fun (k, (_, s)) ->
            line "ig_span_seconds_total{span=\"%s\"} %s" (escape_label k)
              (fnum s))
          ss
      end);
  List.iter
    (fun (k, h) ->
      if not (deterministic && clock_derived k) then begin
        let n = sanitize k in
        line "# TYPE %s histogram" n;
        let cum = ref 0 in
        List.iter
          (fun (i, c) ->
            cum := !cum + c;
            let _, hi = Histogram.bucket_bounds i in
            line "%s_bucket{le=\"%s\"} %d" n (fnum hi) !cum)
          (Histogram.nonzero_buckets h);
        line "%s_bucket{le=\"+Inf\"} %d" n (Histogram.count h);
        line "%s_sum %s" n (fnum (Histogram.sum h));
        line "%s_count %d" n (Histogram.count h)
      end)
    (Obs.histograms obs);
  line "# EOF";
  Buffer.contents buf

(* ---- parsing --------------------------------------------------------------

   A hand-rolled parser for the dialect [render] emits (which is legal
   OpenMetrics): it exists so the validator and the tests can read an
   exposition back without trusting the writer. *)

type sample = {
  name : string;
  labels : (string * string) list;
  value : float;
}

let parse_sample ln =
  let n = String.length ln in
  let i = ref 0 in
  while !i < n && is_name_char ln.[!i] do
    incr i
  done;
  if !i = 0 then Error "sample: empty metric name"
  else begin
    let name = String.sub ln 0 !i in
    let labels = ref [] in
    let err = ref None in
    (if !i < n && ln.[!i] = '{' then begin
       incr i;
       let cont = ref true in
       while !cont && !err = None do
         if !i < n && ln.[!i] = '}' then begin
           incr i;
           cont := false
         end
         else begin
           let j = ref !i in
           while !j < n && is_name_char ln.[!j] do
             incr j
           done;
           if !j = !i || !j >= n || ln.[!j] <> '=' then
             err := Some "sample: malformed label name"
           else begin
             let key = String.sub ln !i (!j - !i) in
             i := !j + 1;
             if !i >= n || ln.[!i] <> '"' then
               err := Some "sample: label value not quoted"
             else begin
               incr i;
               let b = Buffer.create 16 in
               let fin = ref false in
               while (not !fin) && !err = None do
                 if !i >= n then err := Some "sample: unterminated label value"
                 else
                   match ln.[!i] with
                   | '"' ->
                       incr i;
                       fin := true
                   | '\\' ->
                       if !i + 1 >= n then err := Some "sample: dangling escape"
                       else begin
                         (match ln.[!i + 1] with
                         | 'n' -> Buffer.add_char b '\n'
                         | c -> Buffer.add_char b c);
                         i := !i + 2
                       end
                   | c ->
                       Buffer.add_char b c;
                       incr i
               done;
               if !err = None then begin
                 labels := (key, Buffer.contents b) :: !labels;
                 if !i < n && ln.[!i] = ',' then incr i
               end
             end
           end
         end
       done
     end);
    match !err with
    | Some e -> Error e
    | None ->
        if !i >= n || ln.[!i] <> ' ' then
          Error "sample: missing space before value"
        else
          let v = String.trim (String.sub ln (!i + 1) (n - !i - 1)) in
          (match float_of_string_opt v with
          | Some value -> Ok { name; labels = List.rev !labels; value }
          | None -> Error (Printf.sprintf "sample: unparsable value %S" v))
  end

let strip_suffix name sfx =
  let n = String.length name and s = String.length sfx in
  if n > s && String.sub name (n - s) s = sfx then
    Some (String.sub name 0 (n - s))
  else None

let logical_lines text =
  let lines = String.split_on_char '\n' text in
  match List.rev lines with "" :: rest -> List.rev rest | _ -> lines

let samples text =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  List.fold_left
    (fun acc ln ->
      let* acc = acc in
      if ln = "" || (String.length ln > 0 && ln.[0] = '#') then Ok acc
      else
        let* s = parse_sample ln in
        Ok (s :: acc))
    (Ok []) (logical_lines text)
  |> Result.map List.rev

(* ---- validation -----------------------------------------------------------

   Structural checks over one exposition: every sample needs a matching
   [# TYPE] (counters via their [_total] suffix, histograms via
   [_bucket]/[_sum]/[_count]), histogram buckets must be contiguous with
   strictly increasing [le] edges and non-decreasing cumulative counts
   ending in [+Inf], [_count] must equal the [+Inf] bucket, and the text
   must end with [# EOF]. Returns the number of samples. *)

type hist_state = {
  family : string;
  mutable last_le : float;
  mutable last_cum : float;
  mutable inf_count : float option;
  mutable saw_sum : bool;
}

let validate text =
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let cur : hist_state option ref = ref None in
  let n_samples = ref 0 in
  let eof = ref false in
  let check_close () =
    match !cur with
    | None -> Ok ()
    | Some h ->
        Error (Printf.sprintf "histogram %s not closed by _sum/_count" h.family)
  in
  let sample_kind s =
    (* (family, role) for a sample name, resolved against declared types. *)
    let family_is name kind =
      match Hashtbl.find_opt types name with
      | Some k -> k = kind
      | None -> false
    in
    match strip_suffix s.name "_total" with
    | Some f when family_is f "counter" -> Ok (f, `Counter)
    | _ -> (
        match strip_suffix s.name "_bucket" with
        | Some f when family_is f "histogram" -> Ok (f, `Bucket)
        | _ -> (
            match strip_suffix s.name "_sum" with
            | Some f when family_is f "histogram" -> Ok (f, `Sum)
            | _ -> (
                match strip_suffix s.name "_count" with
                | Some f when family_is f "histogram" -> Ok (f, `Count)
                | _ ->
                    if family_is s.name "gauge" then Ok (s.name, `Gauge)
                    else
                      Error
                        (Printf.sprintf "sample %s has no matching # TYPE"
                           s.name))))
  in
  let check_sample s =
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    let* family, role = sample_kind s in
    incr n_samples;
    match role with
    | `Counter | `Gauge ->
        let* () = check_close () in
        if s.value < 0.0 && role = `Counter then
          Error (Printf.sprintf "counter %s is negative" s.name)
        else Ok ()
    | `Bucket -> (
        let* h =
          match !cur with
          | Some h when h.family = family -> Ok h
          | Some h ->
              Error
                (Printf.sprintf "histogram %s interleaved with %s" h.family
                   family)
          | None ->
              let h =
                {
                  family;
                  last_le = neg_infinity;
                  last_cum = neg_infinity;
                  inf_count = None;
                  saw_sum = false;
                }
              in
              cur := Some h;
              Ok h
        in
        if h.inf_count <> None then
          Error (Printf.sprintf "histogram %s: bucket after +Inf" family)
        else
          match List.assoc_opt "le" s.labels with
          | None -> Error (Printf.sprintf "histogram %s: bucket without le" family)
          | Some "+Inf" ->
              if s.value < h.last_cum then
                Error
                  (Printf.sprintf "histogram %s: +Inf count below last bucket"
                     family)
              else begin
                h.inf_count <- Some s.value;
                Ok ()
              end
          | Some le_s -> (
              match float_of_string_opt le_s with
              | None ->
                  Error
                    (Printf.sprintf "histogram %s: unparsable le %S" family
                       le_s)
              | Some le ->
                  if le <= h.last_le then
                    Error
                      (Printf.sprintf
                         "histogram %s: le edges not strictly increasing"
                         family)
                  else if s.value < h.last_cum then
                    Error
                      (Printf.sprintf
                         "histogram %s: cumulative counts decreased" family)
                  else begin
                    h.last_le <- le;
                    h.last_cum <- s.value;
                    Ok ()
                  end))
    | `Sum -> (
        match !cur with
        | Some h when h.family = family && h.inf_count <> None && not h.saw_sum
          ->
            h.saw_sum <- true;
            Ok ()
        | _ ->
            Error
              (Printf.sprintf "histogram %s: _sum out of order (needs +Inf first)"
                 family))
    | `Count -> (
        match !cur with
        | Some h when h.family = family && h.saw_sum -> (
            match h.inf_count with
            | Some inf when inf = s.value ->
                cur := None;
                Ok ()
            | Some inf ->
                Error
                  (Printf.sprintf
                     "histogram %s: _count %g <> +Inf bucket %g" family
                     s.value inf)
            | None -> Error (Printf.sprintf "histogram %s: missing +Inf" family))
        | _ ->
            Error
              (Printf.sprintf "histogram %s: _count out of order (needs _sum)"
                 family))
  in
  let check_line ln =
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    if !eof then Error "content after # EOF"
    else if ln = "# EOF" then
      let* () = check_close () in
      eof := true;
      Ok ()
    else if ln = "" then Ok ()
    else if String.length ln >= 7 && String.sub ln 0 7 = "# TYPE " then
      let* () = check_close () in
      match String.split_on_char ' ' (String.sub ln 7 (String.length ln - 7)) with
      | [ name; kind ] when List.mem kind [ "counter"; "gauge"; "histogram" ]
        ->
          if Hashtbl.mem types name then
            Error (Printf.sprintf "duplicate # TYPE for %s" name)
          else begin
            Hashtbl.replace types name kind;
            Ok ()
          end
      | _ -> Error (Printf.sprintf "malformed TYPE line %S" ln)
    else if ln.[0] = '#' then Ok () (* HELP/UNIT and other comments *)
    else
      let* s = parse_sample ln in
      check_sample s
  in
  let rec go i = function
    | [] -> if !eof then Ok !n_samples else Error "missing # EOF terminator"
    | ln :: rest -> (
        match check_line ln with
        | Ok () -> go (i + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" (i + 1) e))
  in
  go 0 (logical_lines text)

(* Cheap content sniff for artifact dispatch (bench/validate.exe): an
   exposition starts with a TYPE line, or is the empty-registry "# EOF". *)
let looks_like text =
  (String.length text >= 7 && String.sub text 0 7 = "# TYPE ")
  || (String.length text >= 5 && String.sub text 0 5 = "# EOF")
