type t = {
  labels : string array;
  edges : (int * int) list;
  succ : int list array;
  pred : int list array;
}

let n_nodes p = Array.length p.labels
let n_edges p = List.length p.edges
let label p u = p.labels.(u)
let edges p = p.edges
let succ p u = p.succ.(u)
let pred p u = p.pred.(u)

let neighbors p u = p.succ.(u) @ p.pred.(u)

let undirected_bfs p src =
  let n = n_nodes p in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (neighbors p u)
  done;
  dist

let create ~labels ~edges =
  let n = List.length labels in
  if n = 0 then invalid_arg "Pattern.create: empty pattern";
  let seen = Hashtbl.create 16 in
  let edges =
    List.filter
      (fun (u, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Pattern.create: edge endpoint out of range";
        if Hashtbl.mem seen (u, v) then false
        else begin
          Hashtbl.replace seen (u, v) ();
          true
        end)
      edges
  in
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (u, v) ->
      succ.(u) <- v :: succ.(u);
      pred.(v) <- u :: pred.(v))
    edges;
  let p = { labels = Array.of_list labels; edges; succ; pred } in
  let dist = undirected_bfs p 0 in
  if Array.exists (fun d -> d < 0) dist then
    invalid_arg "Pattern.create: pattern is not weakly connected";
  p

let diameter p =
  let best = ref 0 in
  for u = 0 to n_nodes p - 1 do
    Array.iter (fun d -> if d > !best then best := d) (undirected_bfs p u)
  done;
  !best

let matching_order ?anchor p =
  let n = n_nodes p in
  let deg u = List.length p.succ.(u) + List.length p.pred.(u) in
  let order = Array.make n (-1) in
  let placed = Array.make n false in
  let next = ref 0 in
  let place u =
    if not placed.(u) then begin
      order.(!next) <- u;
      placed.(u) <- true;
      incr next
    end
  in
  (match anchor with
  | Some (x, y) ->
      place x;
      place y
  | None ->
      (* Start from a max-degree node. *)
      let start = ref 0 in
      for u = 1 to n - 1 do
        if deg u > deg !start then start := u
      done;
      place !start);
  while !next < n do
    (* Next: an unplaced node adjacent to a placed one (exists by weak
       connectivity), preferring high degree. *)
    let best = ref (-1) in
    for u = 0 to n - 1 do
      if
        (not placed.(u))
        && List.exists (fun v -> placed.(v)) (neighbors p u)
        && (!best = -1 || deg u > deg !best)
      then best := u
    done;
    assert (!best >= 0);
    place !best
  done;
  order

let pp ppf p =
  Format.fprintf ppf "@[pattern: %d nodes, %d edges, labels [%s]@]" (n_nodes p)
    (n_edges p)
    (String.concat ";" (Array.to_list p.labels))
