(* Tests for the two Section 7.1 extensions implemented beyond the paper's
   base system:
   - padded call sites (wider inlining budget),
   - the body-patching installation strategy with its body relocator. *)

open Util
module Runtime = Core.Runtime
module Patch = Core.Patch
module Image = Mv_link.Image
module Insn = Mv_isa.Insn

let fig2 =
  {|
  multiverse bool a;
  multiverse int b;
  int w;
  void side() { w = w + 1; }
  multiverse void multi() {
    if (a) {
      side();
      if (b) { side(); }
    }
  }
  int foo() { w = 0; multi(); return w; }
|}

let padded_session ?(padding = 8) src =
  let program = Core.Compiler.build ~callsite_padding:padding [ ("main", src) ] in
  let machine = Mv_vm.Machine.create program.Core.Compiler.p_image in
  let runtime =
    Core.Runtime.create program.Core.Compiler.p_image ~flush:(fun ~addr ~len ->
        Mv_vm.Machine.flush_icache machine ~addr ~len)
  in
  ({ program; machine; runtime } : session)

(* ------------------------------------------------------------------ *)
(* Padded call sites                                                   *)
(* ------------------------------------------------------------------ *)

let test_padding_emits_nops () =
  let plain = build fig2 in
  let padded = (padded_session fig2).program in
  let size p = Image.symbol_size p.Core.Compiler.p_image "foo" in
  check_int "foo grows by the pad" (size plain + 8) (size padded)

let test_padded_semantics_all_assignments () =
  let s = padded_session fig2 in
  List.iter
    (fun (a, b) ->
      set_global s "a" a;
      set_global s "b" b;
      ignore (Runtime.commit s.runtime);
      let expected = (if a = 1 then 1 else 0) + if a = 1 && b = 1 then 1 else 0 in
      check_int (Printf.sprintf "padded A=%d B=%d" a b) expected (run s "foo" []))
    [ (0, 0); (1, 0); (1, 1); (0, 1); (0, 0) ]

let test_padding_widens_inlining () =
  (* a variant body of 7-8 bytes: too big for a bare 5-byte site, inlineable
     into a padded 13-byte site *)
  let src =
    {|
    multiverse int m;
    int w;
    multiverse void f() {
      if (m) {
        w = 1;
      }
    }
    int foo() { w = 0; f(); return w; }
  |}
  in
  (* m=1 variant body: storeg w, 1 requires a mov + storeg > 5 bytes *)
  let bare = session src in
  set_global bare "m" 1;
  ignore (Runtime.commit bare.runtime);
  let bare_stats = Runtime.stats bare.runtime in
  check_int "bare site cannot inline" 0 bare_stats.Runtime.st_sites_inlined;
  let padded = padded_session ~padding:10 src in
  set_global padded "m" 1;
  ignore (Runtime.commit padded.runtime);
  let padded_stats = Runtime.stats padded.runtime in
  check_int "padded site inlines" 1 padded_stats.Runtime.st_sites_inlined;
  check_int "padded result" 1 (run padded "foo" []);
  (* and revert restores the padded site byte-for-byte *)
  let img = padded.program.Core.Compiler.p_image in
  let text = img.Image.text in
  ignore (Runtime.revert padded.runtime);
  set_global padded "m" 0;
  check_int "reverted dynamic" 0 (run padded "foo" []);
  ignore text

let test_padding_rejects_out_of_range () =
  match Core.Compiler.build ~callsite_padding:25 [ ("m", fig2) ] with
  | exception Core.Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected padding validation to reject 25"

let test_adjacent_sites_not_confused () =
  (* two back-to-back call sites: the second call is not nop padding of the
     first, so sizes must stay at 5 bytes each *)
  let src =
    {|
    multiverse int m;
    int w;
    multiverse void f() { if (m) { w = w + 1; } }
    int foo() { w = 0; f(); f(); return w; }
  |}
  in
  let s = session src in
  set_global s "m" 1;
  ignore (Runtime.commit s.runtime);
  check_int "both sites live" 2 (run s "foo" []);
  ignore (Runtime.revert s.runtime);
  set_global s "m" 0;
  check_int "revert intact" 0 (run s "foo" [])

(* ------------------------------------------------------------------ *)
(* Body patching                                                       *)
(* ------------------------------------------------------------------ *)

let test_body_patching_semantics () =
  let s = session fig2 in
  Runtime.set_strategy s.runtime Runtime.Body_patching;
  List.iter
    (fun (a, b) ->
      set_global s "a" a;
      set_global s "b" b;
      ignore (Runtime.commit s.runtime);
      let expected = (if a = 1 then 1 else 0) + if a = 1 && b = 1 then 1 else 0 in
      check_int (Printf.sprintf "body-patched A=%d B=%d" a b) expected (run s "foo" []))
    [ (0, 0); (1, 0); (1, 1); (0, 1); (1, 1); (0, 0) ]

let test_body_patching_leaves_call_sites_alone () =
  let s = session fig2 in
  let img = s.program.Core.Compiler.p_image in
  Runtime.set_strategy s.runtime Runtime.Body_patching;
  let sites = Core.Descriptor.parse_callsites img in
  let site = (List.hd sites).Core.Descriptor.cs_site in
  let before = Image.read_bytes img site 5 in
  set_global s "a" 1;
  set_global s "b" 1;
  ignore (Runtime.commit s.runtime);
  check_bool "call site untouched" true (Bytes.equal before (Image.read_bytes img site 5));
  let stats = Runtime.stats s.runtime in
  check_int "no site retargeted" 0 stats.Runtime.st_sites_retargeted;
  check_int "no site inlined" 0 stats.Runtime.st_sites_inlined

let test_body_patching_revert_restores_text () =
  let s = session fig2 in
  let img = s.program.Core.Compiler.p_image in
  let text = img.Image.text in
  let snapshot () = Image.sub img text.Image.sr_base text.Image.sr_size in
  Runtime.set_strategy s.runtime Runtime.Body_patching;
  let before = snapshot () in
  set_global s "a" 1;
  set_global s "b" 1;
  ignore (Runtime.commit s.runtime);
  check_bool "commit changed the text" false (Bytes.equal before (snapshot ()));
  ignore (Runtime.revert s.runtime);
  check_bool "revert restored the text" true (Bytes.equal before (snapshot ()))

let test_body_patching_function_pointers_covered () =
  (* overwriting the generic body means function pointers are covered for
     free — no prologue jump needed for fitting variants *)
  let src =
    fig2
    ^ {|
    fnptr indirect = &multi;
    int via_pointer() {
      w = 0;
      indirect();
      return w;
    }
  |}
  in
  let s = session src in
  Runtime.set_strategy s.runtime Runtime.Body_patching;
  set_global s "a" 1;
  set_global s "b" 1;
  ignore (Runtime.commit s.runtime);
  set_global s "a" 0;
  check_int "pointer call sees the installed variant" 2 (run s "via_pointer" [])

let test_strategy_switch_requires_revert () =
  let s = session fig2 in
  set_global s "a" 1;
  set_global s "b" 1;
  ignore (Runtime.commit s.runtime);
  (match Runtime.set_strategy s.runtime Runtime.Body_patching with
  | exception Runtime.Runtime_error _ -> ()
  | () -> Alcotest.fail "must refuse to switch strategy while installed");
  ignore (Runtime.revert s.runtime);
  Runtime.set_strategy s.runtime Runtime.Body_patching;
  ignore (Runtime.commit s.runtime);
  check_int "works after revert" 2 (run s "foo" [])

let test_relocate_body_rebiasing () =
  (* relocate a body containing an external call and an intra-body branch:
     executing the relocated copy must behave identically *)
  let src =
    {|
    int w;
    void ext() { w = w + 100; }
    int body(int n) {
      if (n > 0) {
        ext();
        return n + 1;
      }
      return -1;
    }
  |}
  in
  let s = session src in
  let img = s.program.Core.Compiler.p_image in
  let patch =
    Patch.create img ~flush:(fun ~addr ~len ->
        Mv_vm.Machine.flush_icache s.machine ~addr ~len)
  in
  let src_addr = Image.symbol img "body" in
  let len = Image.symbol_size img "body" in
  (* destination: a fresh page-aligned spot in the text segment? use the
     heap region, made executable *)
  let dst = img.Image.heap_base in
  let relocated = Patch.relocate_body patch ~src:src_addr ~len ~dst in
  Image.mprotect img ~addr:dst ~len Image.prot_rwx;
  Image.write_bytes img dst relocated;
  Image.mprotect img ~addr:dst ~len Image.prot_rx;
  (* the machine only fetches inside the text segment, so execute the
     original and compare the relocated bytes structurally instead *)
  let orig_listing = Image.decode_range img ~addr:src_addr ~len in
  let new_listing = Image.decode_range img ~addr:dst ~len in
  check_int "same instruction count" (List.length orig_listing) (List.length new_listing);
  List.iter2
    (fun (opos, oi) (npos, ni) ->
      match oi, ni with
      | Insn.Call orel, Insn.Call nrel ->
          check_int "external call target preserved" (opos + 5 + orel) (npos + 5 + nrel)
      | Insn.Jnz (_, orel), Insn.Jnz (_, nrel) | Insn.Jz (_, orel), Insn.Jz (_, nrel) ->
          (* intra-body: displacement unchanged *)
          check_int "intra-body branch displacement" orel nrel
      | a, b -> check_bool "other instructions identical" true (a = b))
    orig_listing new_listing

let test_body_patching_commit_is_cheaper () =
  (* with many call sites, body patching performs far fewer patches *)
  let src = Mv_workloads.Callsite_farm.source ~callers:20 ~pairs:5 in
  let patches strategy =
    let s = session src in
    Runtime.set_strategy s.runtime strategy;
    set_global s "config_smp" 1;
    ignore (Runtime.commit s.runtime);
    (Runtime.stats s.runtime).Runtime.st_patches
  in
  let call_site = patches Runtime.Call_site_patching in
  let body = patches Runtime.Body_patching in
  check_bool
    (Printf.sprintf "body patching patches far less (%d vs %d)" body call_site)
    true
    (body * 10 < call_site)

let suite =
  [
    tc "padding emits nops" test_padding_emits_nops;
    tc "padded sites: semantics preserved" test_padded_semantics_all_assignments;
    tc "padding widens the inlining budget" test_padding_widens_inlining;
    tc "padding range validated" test_padding_rejects_out_of_range;
    tc "adjacent sites not mistaken for padding" test_adjacent_sites_not_confused;
    tc "body patching: semantics" test_body_patching_semantics;
    tc "body patching: call sites untouched" test_body_patching_leaves_call_sites_alone;
    tc "body patching: revert restores text" test_body_patching_revert_restores_text;
    tc "body patching: pointers covered for free" test_body_patching_function_pointers_covered;
    tc "strategy switch requires revert" test_strategy_switch_requires_revert;
    tc "relocate_body re-biases external targets" test_relocate_body_rebiasing;
    tc "body patching needs far fewer patches" test_body_patching_commit_is_cheaper;
  ]
