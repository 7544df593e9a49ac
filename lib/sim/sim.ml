module Digraph = Ig_graph.Digraph
module Pattern = Ig_iso.Pattern

type node = Digraph.node

type relation = (node, unit) Hashtbl.t array

let candidates p g =
  Array.init (Pattern.n_nodes p) (fun u ->
      let h = Hashtbl.create 32 in
      (match Ig_graph.Interner.find (Digraph.interner g) (Pattern.label p u) with
      | None -> ()
      | Some sym ->
          List.iter (fun v -> Hashtbl.replace h v ()) (Digraph.nodes_with_label g sym));
      h)

(* Pattern edges carry dense ids; [out_edges.(u)] lists (edge id, u'). *)
let edge_index p =
  let n = Pattern.n_nodes p in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iteri
    (fun e (u, u') ->
      out_edges.(u) <- (e, u') :: out_edges.(u);
      in_edges.(u') <- (e, u) :: in_edges.(u'))
    (Pattern.edges p);
  (out_edges, in_edges)

let support_count g sets u' v =
  let c = ref 0 in
  Digraph.iter_succ
    (fun w -> if Hashtbl.mem sets.(u') w then incr c)
    g v;
  !c

let prune p g sets =
  let out_edges, in_edges = edge_index p in
  let ne = Pattern.n_edges p in
  let cnt = Array.init ne (fun _ -> Hashtbl.create 32) in
  let doomed = Stack.create () in
  (* Initial counts; pairs with an unsupported pattern edge die first. *)
  Array.iteri
    (fun u set ->
      (* Order-free: the greatest fixpoint is unique, so the worklist
         order cannot change the pruned result. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          List.iter
            (fun (e, u') ->
              let c = support_count g sets u' v in
              Hashtbl.replace cnt.(e) v c;
              if c = 0 then Stack.push (u, v) doomed)
            out_edges.(u))
        set)
    sets;
  while not (Stack.is_empty doomed) do
    let u, v = Stack.pop doomed in
    if Hashtbl.mem sets.(u) v then begin
      Hashtbl.remove sets.(u) v;
      (* Predecessors relying on (u, v) as support lose one unit. *)
      List.iter
        (fun (e, t) ->
          Digraph.iter_pred
            (fun pnode ->
              if Hashtbl.mem sets.(t) pnode then begin
                match Hashtbl.find_opt cnt.(e) pnode with
                | Some c ->
                    Hashtbl.replace cnt.(e) pnode (c - 1);
                    if c - 1 = 0 then Stack.push (t, pnode) doomed
                | None -> ()
              end)
            g v)
        in_edges.(u)
    end
  done;
  sets

let run p g = prune p g (candidates p g)

(* Lexicographic (u, v) order: the pair list is user-visible. *)
let pairs rel =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun u set ->
            List.map
              (fun (v, ()) -> (u, v))
              (Ig_obs.Obs.sorted_bindings ~compare:Int.compare set))
          rel))

let mem rel u v = Hashtbl.mem rel.(u) v
