(* Workload [lp-cold]: a seeded corpus of LPs solved in-process,
   one after another on one thread, each first in [`Exact] mode and then
   in the default [`Fast] mode; the two answers must be bit-identical.
   No service code runs. *)

(* Corpus blocks generated at set-up; later blocks are generated as the
   run reaches them, so the time bound, never the corpus, ends the run.
   The inputs digest covers these first blocks. *)
let blocks = 10

(* A traced run solves this fixed prefix instead, so its counts
   (pivots, fallbacks) repeat exactly for a seed. *)
let traced_lps = 2400

type result = {
  samples : Lp_layer.sample array;
  lps : string array;  (* the LPs solved, in order, as request lines *)
  setup_s : float;  (* median of [setups] corpus generations, CPU time at the reference speed *)
  speed_ms : float;  (* median speed probe over the pass *)
  rss_mb : float;  (* peak resident set once the set-up corpus is solved *)
  digest : string;
  per_layer : Util.metric list;  (* traced runs only *)
}

(* Corpus generations per run; [setup_s] is their median. *)
let setups = 9

(* LPs re-solved in three alternating rounds, untraced then traced, for
   the tracing overhead (in CPU time, like the solves themselves). *)
let overhead_lps = 40

(* The corpus is held as request lines, which the collector does not
   scan, and each LP is parsed just before it is solved: the live heap
   the solver runs against stays the program's own. *)
let block_lines ~seed b = Array.map Service.Protocol.request_to_string (Corpus.lp_block ~seed b)
let corpus_lines ~seed = Array.concat (List.init blocks (block_lines ~seed))

let parse = Lp_layer.parse

let run ~seed ~seconds =
  let setups = Array.init setups (fun _ -> Util.at_reference_speed Util.cpu_now (fun () -> corpus_lines ~seed)) in
  let first = fst setups.(0) in
  let setup_s = Util.median (Array.map snd setups) in
  let digest = Util.digest_lines (Array.to_list first) in
  let corpus = Util.Vec.create () in
  Array.iter (Util.Vec.push corpus) first;
  let line i =
    while i >= Util.Vec.length corpus do
      Array.iter (Util.Vec.push corpus) (block_lines ~seed (Util.Vec.length corpus / Corpus.block_size))
    done;
    Util.Vec.get corpus i
  in
  let traced = !Span.enabled in
  let meter = Lp_layer.meter () and replies = Util.Vec.create () in
  Gc.compact ();
  let deadline = Util.now () +. seconds in
  (* Peak memory is read at a fixed point, when the corpus made at set-up
     has been solved (or at the end, if the run stops short of it): the
     corpus, and with it the heap, grows with the number of LPs a run
     reaches, which follows the machine's speed. *)
  let rss_mb = ref nan in
  let rec loop i =
    let more = if traced then i < traced_lps else Util.now () < deadline in
    if i = Array.length first || ((not more) && Float.is_nan !rss_mb) then rss_mb := Util.vm_hwm_mb 0;
    if more then begin
      let lp = parse (line i) in
      let exact = Lp_layer.measure meter ~req:(i + 1) lp in
      if traced then Util.Vec.push replies (Service.Protocol.response_to_string (Lp_layer.response_of lp exact));
      loop (i + 1)
    end
  in
  loop 0;
  let samples = Lp_layer.scaled_samples meter in
  let lps = Array.init (Array.length samples) line in
  let per_layer =
    if not traced then []
    else begin
      (* Before the overhead re-solves below move the fast-pass counters. *)
      let lps = Array.map parse lps in
      let layers =
        Lp_layer.layer_metrics samples lps
        @ Lp_layer.protocol_metrics
            ~lines:(Array.map Service.Protocol.request_to_string lps)
            ~replies:(Util.Vec.to_array replies)
      in
      Dls.Lp_model.reset_cache ();
      let eval_us =
        Util.median
          (Array.map (fun r -> snd (Util.time (fun () -> Lp_layer.eval ~mode:`Daemon r)) *. 1e6) lps)
      in
      let first = Array.sub lps 0 (min overhead_lps (Array.length lps)) in
      let resolve traced =
        Span.enabled := traced;
        snd (Util.cpu_time (fun () -> Array.iteri (fun i r -> ignore (Lp_layer.run_lp ~req:(-i - 1) r)) first))
      in
      let untraced = ref 0. and traced = ref 0. in
      for _ = 1 to 3 do
        untraced := !untraced +. resolve false;
        traced := !traced +. resolve true
      done;
      layers
      @ [ Util.metric ~n:(Array.length lps) "eval.solve_us" "us" eval_us;
          Util.metric "trace.overhead_pct" "%" (((!traced /. !untraced) -. 1.) *. 100.) ]
    end
  in
  { samples; lps; setup_s; speed_ms = Lp_layer.probe_ms meter; rss_mb = !rss_mb; digest; per_layer }
