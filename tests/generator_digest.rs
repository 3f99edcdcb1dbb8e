//! One digest over every program the two generators produce, so a
//! refactor of the generators can prove it moved nothing.
//!
//! It covers:
//! - every `expand_corpus()` variant: the assembly text of an
//!   untranslatable variant, or the disassembly of a translatable
//!   variant's liquid build plus its input data;
//! - the `conform-case-v1` text of every legal case that
//!   `generate_case(0xC0FFEE, 0..256)` draws (legal cases draw from
//!   their own per-case stream, so a change to the illegal branch must
//!   leave them alone).
//!
//! A change that is meant to move a generated program updates the
//! pinned digest in the same commit and says why.

use liquid_simd_repro::compiler::build_liquid;
use liquid_simd_repro::conform::corpus;
use liquid_simd_repro::conform::gen::{generate_case, CaseSpec};
use liquid_simd_repro::isa::asm::disassemble;
use liquid_simd_repro::kernelgen::{expand_corpus, Payload};
use liquid_simd_repro::serve::fnv1a;

const PINNED: u64 = 0xba81_82a4_3467_7049;

fn generated_text() -> String {
    let mut text = String::new();
    for v in expand_corpus().expect("embedded corpus expands") {
        text.push_str(&v.name);
        text.push('\n');
        match &v.payload {
            Payload::Asm { src, expected_tag } => {
                text.push_str(expected_tag);
                text.push('\n');
                text.push_str(src);
            }
            Payload::Kernel(w) => {
                let build = build_liquid(w).expect("corpus kernels build");
                text.push_str(&disassemble(&build.program));
                text.push_str(&format!("{:?}\n", w.data));
            }
        }
    }
    for i in 0..256 {
        if let case @ CaseSpec::Legal(_) = generate_case(0xC0FFEE, i) {
            text.push_str(&corpus::to_text(&case));
        }
    }
    text
}

#[test]
fn generated_programs_match_the_pinned_digest() {
    let digest = fnv1a(generated_text().as_bytes());
    assert_eq!(
        digest, PINNED,
        "generated programs changed: digest {digest:#018x}, pinned {PINNED:#018x}"
    );
}
