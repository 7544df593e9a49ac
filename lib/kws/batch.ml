module Digraph = Ig_graph.Digraph

type node = Digraph.node

type query = { keywords : string list; bound : int }

type entry = { dist : int; next : node }

let kdist_one g ~keyword ~bound =
  let kd = Hashtbl.create 256 in
  let q = Queue.create () in
  (match Ig_graph.Interner.find (Digraph.interner g) keyword with
  | None -> ()
  | Some sym ->
      List.iter
        (fun v ->
          Hashtbl.replace kd v { dist = 0; next = -1 };
          Queue.add v q)
        (Digraph.nodes_with_label g sym));
  (* Reverse BFS bounded by [bound]. *)
  while not (Queue.is_empty q) do
    let w = Queue.pop q in
    let d = (Hashtbl.find kd w).dist in
    if d < bound then
      (* BFS distances are layer-determined; the discovery-order [next]
         pointer is rewritten to the smallest-id witness below. *)
      Digraph.iter_pred
        (fun v ->
          if not (Hashtbl.mem kd v) then begin
            Hashtbl.replace kd v { dist = d + 1; next = w };
            Queue.add v q
          end)
        g w
  done;
  (* Deterministic tie-break: smallest-id successor on a shortest path.
     Order-free: each entry is rewritten from its own successors only. *)
  (Hashtbl.iter [@lint.allow "D2"])
    (fun v e ->
      if e.dist > 0 then begin
        let best = ref max_int in
        Digraph.iter_succ
          (fun w ->
            match Hashtbl.find_opt kd w with
            | Some e' when e'.dist = e.dist - 1 && w < !best -> best := w
            | _ -> ())
          g v;
        assert (!best < max_int);
        Hashtbl.replace kd v { e with next = !best }
      end)
    kd;
  kd

let kdist_maps g q =
  Array.of_list
    (List.map (fun k -> kdist_one g ~keyword:k ~bound:q.bound) q.keywords)

let roots_of_kdist kd =
  if Array.length kd = 0 then []
  else begin
    (* Intersect, scanning the smallest map. *)
    let smallest = ref 0 in
    Array.iteri
      (fun i m ->
        if Hashtbl.length m < Hashtbl.length kd.(!smallest) then smallest := i)
      kd;
    let roots =
      (* Order-free: the result is sorted below. *)
      (Hashtbl.fold [@lint.allow "D2"])
        (fun v _ acc ->
          if Array.for_all (fun m -> Hashtbl.mem m v) kd then v :: acc else acc)
        kd.(!smallest) []
    in
    List.sort Int.compare roots
  end

let run g q = roots_of_kdist (kdist_maps g q)

let tree_of kd r =
  if not (Array.for_all (fun m -> Hashtbl.mem m r) kd) then []
  else
    Array.to_list
      (Array.mapi
         (fun i m ->
           let rec path v acc =
             let e = Hashtbl.find m v in
             if e.dist = 0 then List.rev (v :: acc) else path e.next (v :: acc)
           in
           (i, path r []))
         kd)
