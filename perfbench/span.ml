(* Host-side spans, recorded from outside the program: the benchmark wraps
   each call it makes into a layer's public function.  Spans stay in
   memory while the traced pass runs and are written out at the end.

   A span's self time is its duration minus the part its children cover;
   the self time of an op's root span is the op time no layer span
   accounts for (the unattributed remainder). *)

type t = {
  id : int;
  parent : int;  (** id of the enclosing span, [-1] for a root *)
  op : int;  (** op index, [-1] for set-up and probes *)
  mutable name : string;
  t0 : int64;  (** monotonic ns *)
  mutable t1 : int64;
  w0 : float;  (** words allocated so far (minor + direct major) *)
  mutable w1 : float;
}

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Words allocated by this domain: minor allocations plus the ones made
   directly in the major heap (promotions are already counted as minor).
   The minor count comes from [Gc.minor_words]: on OCaml 5.1 the minor
   field of [Gc.counters] under-counts what was allocated since the last
   minor collection. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let enabled = ref false
let recorded : t list ref = ref []
let open_spans : t list ref = ref []
let last : t option ref = ref None
let current_op = ref (-1)
let next_id = ref 0

let start () =
  enabled := true;
  recorded := [];
  open_spans := [];
  last := None;
  current_op := -1;
  next_id := 0

let stop () =
  enabled := false;
  List.rev !recorded

let with_span name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; parent; op = !current_op; name; t0 = now_ns (); t1 = 0L;
        w0 = words (); w1 = 0.0 }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    let close () =
      s.t1 <- now_ns ();
      s.w1 <- words ();
      open_spans := List.tl !open_spans;
      recorded := s :: !recorded;
      last := Some s
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Run [f] as op [i]: the root span every layer span of the op nests in. *)
let with_op i f =
  current_op := i;
  Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> with_span "op" f)

(* Rename the span that closed last, for a classification only known once
   the call returned (a commit that hit the variant cache or missed it). *)
let relabel_last name = match !last with Some s -> s.name <- name | None -> ()

let duration_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

type agg = {
  calls : int;
  total_ns : float;
  self_ns : float;
  self_words : float;
  op_self_ns : float;  (** self time inside ops *)
}

(* Per span name: calls, time, and self time/words. *)
let aggregate (spans : t list) : (string, agg) Hashtbl.t =
  let child_ns = Hashtbl.create 1024 and child_words = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_ns s.parent (duration_ns s);
        add child_words s.parent (s.w1 -. s.w0)
      end)
    spans;
  let out = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self_ns =
        duration_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id)
      in
      let self_words =
        s.w1 -. s.w0 -. Option.value ~default:0.0 (Hashtbl.find_opt child_words s.id)
      in
      let a =
        Option.value (Hashtbl.find_opt out s.name)
          ~default:
            { calls = 0; total_ns = 0.0; self_ns = 0.0; self_words = 0.0; op_self_ns = 0.0 }
      in
      Hashtbl.replace out s.name
        {
          calls = a.calls + 1;
          total_ns = a.total_ns +. duration_ns s;
          self_ns = a.self_ns +. self_ns;
          self_words = a.self_words +. self_words;
          op_self_ns = (a.op_self_ns +. if s.op >= 0 then self_ns else 0.0);
        })
    spans;
  out

(* Chrome [trace_event] document (load it in Perfetto or chrome://tracing). *)
let write_chrome path (spans : t list) =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let base = List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m) Int64.max_int spans in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"words\":%.0f}}\n"
        (if i = 0 then "" else ",")
        s.name
        (Int64.to_float (Int64.sub s.t0 base) /. 1e3)
        (duration_ns s /. 1e3) s.id s.parent s.op (s.w1 -. s.w0))
    spans;
  output_string oc "]}\n";
  close_out oc
