module Digraph = Ig_graph.Digraph
module Regex = Ig_nfa.Regex

let random_node_label rng g =
  Digraph.label_name g (Random.State.int rng (Digraph.n_nodes g))

let kws ~rng g ~m ~b =
  if Digraph.n_nodes g = 0 then invalid_arg "Queries.kws: empty graph";
  {
    Ig_kws.Batch.keywords = List.init m (fun _ -> random_node_label rng g);
    bound = b;
  }

let rpq ~rng g ~size =
  if Digraph.n_nodes g = 0 then invalid_arg "Queries.rpq: empty graph";
  if size < 1 then invalid_arg "Queries.rpq: size must be >= 1";
  (* Labels are read off a directed random walk so concatenations are
     satisfiable — queries with empty answers make incremental-vs-batch
     comparisons vacuous. Stars and unions are sprinkled on top. *)
  let walk_labels () =
    let n = Digraph.n_nodes g in
    let labels = ref [] and v = ref (Random.State.int rng n) in
    labels := Digraph.label_name g !v :: !labels;
    while List.length !labels < size do
      let succs = Digraph.succ_list g !v in
      match succs with
      | [] ->
          (* Stuck: restart the walk somewhere else. *)
          v := Random.State.int rng n;
          labels := Digraph.label_name g !v :: !labels
      | ss ->
          v := List.nth ss (Random.State.int rng (List.length ss));
          labels := Digraph.label_name g !v :: !labels
    done;
    List.rev !labels
  in
  match walk_labels () with
  | [] -> assert false
  | first :: rest ->
      let decorate a =
        if Random.State.int rng 4 = 0 then Regex.Star a else a
      in
      (* Unions absorb two consecutive walk labels so |Q| stays exact. *)
      let rec build acc = function
        | [] -> acc
        | l1 :: l2 :: tl when Random.State.int rng 5 = 0 ->
            build
              (Regex.Concat
                 (acc, decorate (Regex.Alt (Regex.Label l1, Regex.Label l2))))
              tl
        | l :: tl -> build (Regex.Concat (acc, decorate (Regex.Label l))) tl
      in
      build (Regex.Label first) rest

(* Sample [n] nodes forming a weakly connected subgraph by an undirected
   random expansion from a random seed. *)
let sample_connected_nodes rng g n =
  let total = Digraph.n_nodes g in
  let seed = Random.State.int rng total in
  let chosen = Hashtbl.create 16 in
  let frontier = ref [ seed ] in
  Hashtbl.replace chosen seed ();
  while Hashtbl.length chosen < n && !frontier <> [] do
    (* Pick a random frontier node and a random unvisited neighbor. *)
    let idx = Random.State.int rng (List.length !frontier) in
    let v = List.nth !frontier idx in
    let candidates = ref [] in
    let consider w =
      if not (Hashtbl.mem chosen w) then candidates := w :: !candidates
    in
    (* Sorted: the candidate order feeds a seeded random pick, which must
       be reproducible across hash seeds. *)
    Digraph.iter_succ consider g v;
    Digraph.iter_pred consider g v;
    match !candidates with
    | [] -> frontier := List.filteri (fun i _ -> i <> idx) !frontier
    | cs ->
        let w = List.nth cs (Random.State.int rng (List.length cs)) in
        Hashtbl.replace chosen w ();
        frontier := w :: !frontier
  done;
  if Hashtbl.length chosen = n then
    Some
      (List.sort Int.compare
         ((Hashtbl.fold [@lint.allow "D2"]) (fun v () acc -> v :: acc) chosen []))
  else None

let iso ~rng g ~nodes ~edges =
  if Digraph.n_nodes g = 0 then None
  else begin
    let attempt () =
      match sample_connected_nodes rng g nodes with
      | None -> None
      | Some vs ->
          let index = Hashtbl.create 16 in
          List.iteri (fun i v -> Hashtbl.replace index v i) vs;
          let induced = ref [] in
          List.iteri
            (fun i v ->
              Digraph.iter_succ
                (fun w ->
                  match Hashtbl.find_opt index w with
                  | Some j -> induced := (i, j) :: !induced
                  | None -> ())
                g v)
            vs;
          (* Keep a spanning structure, then top up to [edges]. *)
          let keep = Hashtbl.create 16 in
          let linked = Array.make nodes false in
          let adj = Array.make nodes [] in
          List.iter
            (fun (i, j) ->
              adj.(i) <- (i, j) :: adj.(i);
              adj.(j) <- (i, j) :: adj.(j))
            !induced;
          let rec connect i =
            (* BFS tree over the undirected view. *)
            linked.(i) <- true;
            List.iter
              (fun (a, b) ->
                let other = if a = i then b else a in
                if not linked.(other) then begin
                  Hashtbl.replace keep (a, b) ();
                  connect other
                end)
              adj.(i)
          in
          connect 0;
          if Array.exists not linked then None
          else begin
            let extras =
              List.filter (fun e -> not (Hashtbl.mem keep e)) !induced
            in
            let extras = Array.of_list extras in
            for i = Array.length extras - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let tmp = extras.(i) in
              extras.(i) <- extras.(j);
              extras.(j) <- tmp
            done;
            let want = max 0 (edges - Hashtbl.length keep) in
            Array.iteri
              (fun i e -> if i < want then Hashtbl.replace keep e ())
              extras;
            let labels = List.map (fun v -> Digraph.label_name g v) vs in
            Some
              (Ig_iso.Pattern.create ~labels
                 ~edges:
                   (List.sort
                      (fun (a1, b1) (a2, b2) ->
                        match Int.compare a1 a2 with
                        | 0 -> Int.compare b1 b2
                        | c -> c)
                      ((Hashtbl.fold [@lint.allow "D2"])
                         (fun e () acc -> e :: acc)
                         keep [])))
          end
    in
    let rec try_n k = if k = 0 then None else
      match attempt () with Some p -> Some p | None -> try_n (k - 1)
    in
    try_n 50
  end
