(* Recorded outputs (MD5 of the bit patterns, see
   {!Harness.digest_floats}; the suite's is the MD5 of its stdout).  The
   E14 curves and the suite have no random input and are checked on every
   seed; the census summaries are checked on {!Harness.reference_seed}
   only. *)

let e14_packet = "b6740dfc4e0f17076556dafd9787f310"
let e14_fluid = "f7b21467d425eb887ebac224b71829ba"
let e14_hybrid = "05a1ce53c0c962eca2f65db3735b2c43"

let census =
  "b310107d80baf7b230fdc6d22b02f326/8491f32a577fb0f23b7652635c3c3ba6"

let fluid_census =
  String.concat "/"
    [ "671688603cb4c5d33620b3388a1db1cd"; "93d68ff43f7e7d7e5d22690213437d69";
      "fa2b395a865ab31ae6f58643199d2672"; "eeec5ea41eda13788e0b90bc7beccca5";
      "4f195f5ce331517041f6e2a226f937b8"; "d8341c1307c3c5da4228b12e7565488d" ]

let suite_stdout = "3819c476ab2f5a1b8db9caf75fd2c025"
