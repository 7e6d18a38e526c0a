"""Tests for the repro.verify static-analysis framework.

Covers the diagnostic engine, hand-built known-bad IL kernels and ISA
programs (one per diagnostic code), the GPR cross-check, differential
pass validation (including an intentionally broken optimization pass),
and the property that every kernel generator compiles verifier-clean.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_kernel
from repro.compiler.optimize import eliminate_dead_code
from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    Operand,
    position,
    temp,
    SampleInstruction,
)
from repro.il.module import ILKernel, InputDecl, OutputDecl
from repro.il.opcodes import ILOp
from repro.il.parser import parse_il
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.il.validate import ILValidationError, validate_kernel
from repro.isa.clauses import (
    ALUClause,
    ALUOp,
    Bundle,
    ExportClause,
    FetchInstr,
    StoreInstr,
    TEXClause,
    Value,
    ValueLocation,
)
from repro.isa.interp import execute_program
from repro.isa.program import ISAProgram
from repro.kernels import (
    KernelParams,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)
from repro.sim.functional import execute_kernel
from repro.verify.dataflow import GPRInterval, gpr_live_intervals, peak_live_gprs
from repro.verify.diagnostics import errors
from repro.verify import (
    CODE_CATALOG,
    Diagnostic,
    PassValidationError,
    Severity,
    SourceLocation,
    VerificationError,
    check_il_pass,
    check_kernel,
    check_kernel_errors,
    check_lowering,
    check_program,
    diag,
    format_diagnostics,
    lint_kernel,
    max_live_gprs,
    recomputed_gpr_count,
    run_verified_pass,
    seeded_constants,
    seeded_inputs,
    verification,
)


# ---- kernel construction helpers -------------------------------------------

def make_kernel(
    body,
    inputs=1,
    outputs=1,
    mode=ShaderMode.PIXEL,
    name="handmade",
) -> ILKernel:
    """Build an ILKernel directly (no validation) for known-bad tests."""
    return ILKernel(
        name=name,
        mode=mode,
        dtype=DataType.FLOAT,
        inputs=tuple(
            InputDecl(i, MemorySpace.TEXTURE, DataType.FLOAT)
            for i in range(inputs)
        ),
        outputs=tuple(
            OutputDecl(i, MemorySpace.COLOR_BUFFER, DataType.FLOAT)
            for i in range(outputs)
        ),
        body=tuple(body),
    )


def sample(dest_index, resource):
    return SampleInstruction(temp(dest_index), resource, Operand(position()))


def add(dest_index, a, b):
    return ALUInstruction(
        ILOp.ADD, temp(dest_index), (Operand(temp(a)), Operand(temp(b)))
    )


def export(target, source_index):
    return ExportInstruction(target, Operand(temp(source_index)))


def codes(diagnostics) -> set[str]:
    return {d.code for d in diagnostics}


def force(cls, **fields):
    """Construct a frozen dataclass bypassing ``__post_init__``."""
    obj = object.__new__(cls)
    for key, value in fields.items():
        object.__setattr__(obj, key, value)
    return obj


# ---- the diagnostic engine -------------------------------------------------

class TestDiagnosticEngine:
    def test_catalog_has_enough_codes(self):
        assert len(CODE_CATALOG) >= 8

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic("V999", Severity.ERROR, "nope")

    def test_diag_defaults_severity_from_catalog(self):
        assert diag("V008", "x").severity is Severity.WARNING
        assert diag("V004", "x").severity is Severity.ERROR

    def test_str_includes_code_severity_location(self):
        d = diag("V004", "bad read", SourceLocation("il", instruction=3))
        assert "V004" in str(d)
        assert "error" in str(d)
        assert "il:3" in str(d)

    def test_format_orders_errors_first(self):
        report = format_diagnostics(
            [diag("V008", "warn here"), diag("V004", "error here")]
        )
        assert report.index("V004") < report.index("V008")
        assert "1 error(s), 1 warning(s)" in report

    def test_to_json_round_trips_location(self):
        d = diag(
            "V102", "escape", SourceLocation("isa", clause=2, bundle=5)
        )
        record = d.to_json()
        assert record["code"] == "V102"
        assert record["location"] == {"unit": "isa", "clause": 2, "bundle": 5}


# ---- IL-level known-bad kernels --------------------------------------------

class TestILDiagnostics:
    def test_v001_no_outputs(self):
        kernel = make_kernel(
            [sample(0, 0)], inputs=1, outputs=0
        )
        assert "V001" in codes(check_kernel(kernel))

    def test_v002_color_output_in_compute(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), export(0, 1)],
            mode=ShaderMode.COMPUTE,
        )
        assert "V002" in codes(check_kernel(kernel))

    def test_v004_uninitialized_read(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 7), export(0, 1)]
        )
        found = check_kernel(kernel)
        assert "V004" in codes(found)
        v004 = next(d for d in found if d.code == "V004")
        assert v004.location.instruction == 1
        assert "r7" in v004.message

    def test_v005_input_never_fetched(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), export(0, 1)], inputs=2
        )
        assert "V005" in codes(check_kernel(kernel))

    def test_v006_fetched_value_unused(self):
        kernel = make_kernel(
            [sample(0, 0), sample(1, 1), add(2, 0, 0), export(0, 2)],
            inputs=2,
        )
        assert "V006" in codes(check_kernel(kernel))

    def test_input_fetched_twice_is_used_if_any_fetch_is(self):
        # The second fetch is dead (V008), but the input itself feeds the
        # export through the first one, so V006 must not fire.
        kernel = parse_il(
            "il_ps_2_0\n"
            "dcl_input_position_interp(linear_noperspective) v0.xy__\n"
            "dcl_resource_id(0)_type(2d,unnorm)_fmt(float)\n"
            "dcl_output_generic o0\n"
            "sample_resource(0)_sampler(0) r0, v0\n"
            "sample_resource(0)_sampler(0) r1, v0\n"
            "mov o0, r0\n"
            "end\n"
        )
        found = check_kernel(kernel)
        assert [(d.code, d.location.instruction) for d in found] == [
            ("V008", 1)
        ]
        program = compile_kernel(kernel, verify=True)
        assert eliminate_dead_code(kernel)[1] == 1
        assert len(program.kernel.body) == 2

    def test_v007_output_never_written(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), export(0, 1)], outputs=2
        )
        assert "V007" in codes(check_kernel(kernel))

    def test_v008_dead_write_is_warning(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), add(2, 1, 1), export(0, 1)]
        )
        found = check_kernel(kernel)
        assert "V008" in codes(found)
        v008 = next(d for d in found if d.code == "V008")
        assert v008.severity is Severity.WARNING
        assert v008.location.instruction == 2
        # warnings do not fail the strict validator
        validate_kernel(kernel)

    def test_v009_instruction_after_terminal_store(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), export(0, 1), add(2, 1, 1)]
        )
        assert "V009" in codes(check_kernel(kernel))

    def test_v010_output_written_twice(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), export(0, 1), export(0, 1)]
        )
        found = check_kernel(kernel)
        v010 = next(d for d in found if d.code == "V010")
        assert v010.severity is Severity.WARNING

    def test_collect_all_reports_every_problem(self):
        # Uninitialized read + unused input + unwritten output, at once.
        kernel = make_kernel(
            [add(1, 7, 7), export(0, 1)], inputs=1, outputs=2
        )
        found = codes(check_kernel(kernel))
        assert {"V004", "V005", "V007"} <= found

    def test_validate_kernel_still_raises_first_error(self):
        kernel = make_kernel([], inputs=0, outputs=0)
        with pytest.raises(ILValidationError, match="no outputs"):
            validate_kernel(kernel)

    def test_clean_kernel_has_no_diagnostics(self):
        kernel = make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)])
        assert check_kernel(kernel) == []


# ---- error-only IL checks ---------------------------------------------------

#: The IL negative fixtures, one per diagnostic code V001-V010, plus
#: kernels with several findings, an empty kernel and a clean one.
IL_FIXTURES = {
    "V001": make_kernel([sample(0, 0)], outputs=0),
    "V002": make_kernel(
        [sample(0, 0), add(1, 0, 0), export(0, 1)], mode=ShaderMode.COMPUTE
    ),
    "V003": make_kernel(
        [sample(0, 0), add(1, 0, 0)] + [export(i, 1) for i in range(9)],
        outputs=9,
    ),
    "V004": make_kernel([sample(0, 0), add(1, 0, 7), export(0, 1)]),
    "V005": make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)], inputs=2),
    "V006": make_kernel(
        [sample(0, 0), sample(1, 1), add(2, 0, 0), export(0, 2)], inputs=2
    ),
    "V007": make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)], outputs=2),
    "V008": make_kernel(
        [sample(0, 0), add(1, 0, 0), add(2, 1, 1), export(0, 1)]
    ),
    "V009": make_kernel(
        [sample(0, 0), add(1, 0, 0), export(0, 1), add(2, 1, 1)]
    ),
    "V010": make_kernel(
        [sample(0, 0), add(1, 0, 0), export(0, 1), export(0, 1)]
    ),
    "several": make_kernel([add(1, 7, 7), export(0, 1)], outputs=2),
    "warnings": make_kernel(
        [
            sample(0, 0),
            add(1, 0, 0),
            add(2, 1, 1),
            add(3, 2, 9),
            export(0, 1),
            export(0, 1),
            add(4, 1, 1),
        ]
    ),
    "empty": make_kernel([], inputs=0, outputs=0),
    "clean": make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)]),
}

#: ``check_kernel`` output for each fixture as (code, location, message),
#: recorded before the error-only split; ``repro lint`` prints these.
PINNED_IL_DIAGNOSTICS = {
    'V001': [
        ('V001', None, "kernel 'handmade' has no outputs; the CAL compiler would eliminate it entirely (paper §III)"),
        ('V006', None, "kernel 'handmade': input 0 is sampled into r0 but the value is never used (paper §III)"),
        ('V008', 'il:0', "kernel 'handmade': instruction 0 (sample_resource(0)_sampler(0) r0, v0) computes a value that never reaches an output (DCE would remove it)"),
    ],
    'V002': [
        ('V002', None, "kernel 'handmade': compute shader mode cannot write color buffers (output 0, paper §III-C)"),
    ],
    'V003': [
        ('V003', None, "kernel 'handmade' declares 9 color buffers; the hardware supports at most 8 render targets"),
    ],
    'V004': [
        ('V004', 'il:1', "kernel 'handmade': instruction 1 (add r1, r0, r7) reads r7 before it is written"),
    ],
    'V005': [
        ('V005', None, "kernel 'handmade': input 1 is never sampled; the CAL compiler would optimize it out (paper §III)"),
    ],
    'V006': [
        ('V006', None, "kernel 'handmade': input 1 is sampled into r1 but the value is never used (paper §III)"),
        ('V008', 'il:1', "kernel 'handmade': instruction 1 (sample_resource(1)_sampler(1) r1, v0) computes a value that never reaches an output (DCE would remove it)"),
    ],
    'V007': [
        ('V007', None, "kernel 'handmade': color output 1 is never written"),
    ],
    'V008': [
        ('V008', 'il:2', "kernel 'handmade': instruction 2 (add r2, r1, r1) computes a value that never reaches an output (DCE would remove it)"),
    ],
    'V009': [
        ('V009', 'il:3', "kernel 'handmade': instruction 3 (add r2, r1, r1) follows the store at 2; exports terminate the program"),
        ('V008', 'il:3', "kernel 'handmade': instruction 3 (add r2, r1, r1) computes a value that never reaches an output (DCE would remove it)"),
    ],
    'V010': [
        ('V010', None, "kernel 'handmade': color output 0 is written 2 times; only the last store survives"),
    ],
    'several': [
        ('V004', 'il:0', "kernel 'handmade': instruction 0 (add r1, r7, r7) reads r7 before it is written"),
        ('V004', 'il:0', "kernel 'handmade': instruction 0 (add r1, r7, r7) reads r7 before it is written"),
        ('V005', None, "kernel 'handmade': input 0 is never sampled; the CAL compiler would optimize it out (paper §III)"),
        ('V007', None, "kernel 'handmade': color output 1 is never written"),
    ],
    'warnings': [
        ('V004', 'il:3', "kernel 'handmade': instruction 3 (add r3, r2, r9) reads r9 before it is written"),
        ('V010', None, "kernel 'handmade': color output 0 is written 2 times; only the last store survives"),
        ('V009', 'il:6', "kernel 'handmade': instruction 6 (add r4, r1, r1) follows the store at 4; exports terminate the program"),
        ('V008', 'il:2', "kernel 'handmade': instruction 2 (add r2, r1, r1) computes a value that never reaches an output (DCE would remove it)"),
        ('V008', 'il:3', "kernel 'handmade': instruction 3 (add r3, r2, r9) computes a value that never reaches an output (DCE would remove it)"),
        ('V008', 'il:6', "kernel 'handmade': instruction 6 (add r4, r1, r1) computes a value that never reaches an output (DCE would remove it)"),
    ],
    'empty': [
        ('V001', None, "kernel 'handmade' has no outputs; the CAL compiler would eliminate it entirely (paper §III)"),
    ],
    'clean': [],
}


def assert_validate_agrees_with_check_kernel(kernel: ILKernel) -> None:
    """``validate_kernel`` raises iff ``check_kernel`` finds an error.

    The raised message is the first error's, and the error-only checks
    return exactly ``check_kernel``'s findings minus the V008 pass.
    """
    found = check_kernel(kernel)
    assert check_kernel_errors(kernel) == [
        d for d in found if d.code != "V008"
    ]
    failures = errors(found)
    if failures:
        with pytest.raises(ILValidationError) as info:
            validate_kernel(kernel)
        assert str(info.value) == failures[0].message
    else:
        validate_kernel(kernel)


@st.composite
def mutated_figure3_kernels(draw) -> ILKernel:
    """The Figure 3 kernel with a few random body and declaration edits."""
    mode = draw(st.sampled_from(list(ShaderMode)))
    kernel = generate_generic(
        KernelParams(
            inputs=draw(st.integers(2, 5)),
            outputs=draw(st.integers(1, 2)),
            alu_fetch_ratio=draw(st.sampled_from([0.5, 1.0, 2.0])),
            mode=mode,
        )
    )
    body = list(kernel.body)
    inputs, outputs = list(kernel.inputs), list(kernel.outputs)
    index = st.integers(0, 63)
    for edit in draw(
        st.lists(
            st.sampled_from(
                [
                    "delete",
                    "duplicate",
                    "swap",
                    "reroute",
                    "drop_input",
                    "extra_input",
                    "extra_output",
                    "drop_outputs",
                    "flip_mode",
                ]
            ),
            min_size=1,
            max_size=4,
        )
    ):
        i, j = draw(index), draw(index)
        if edit == "delete" and body:
            del body[i % len(body)]
        elif edit == "duplicate" and body:
            body.insert(j % (len(body) + 1), body[i % len(body)])
        elif edit == "swap" and body:
            a, b = i % len(body), j % len(body)
            body[a], body[b] = body[b], body[a]
        elif edit == "reroute" and body:
            # Point one read (or a fetch's write) at another temporary,
            # possibly one that is never written.
            pos = i % len(body)
            instr = body[pos]
            reg = temp(j % (len(body) + 3))
            if isinstance(instr, ALUInstruction):
                sources = (Operand(reg),) + instr.sources[1:]
                body[pos] = dataclasses.replace(instr, sources=sources)
            elif isinstance(instr, SampleInstruction):
                body[pos] = dataclasses.replace(instr, dest=reg)
            elif isinstance(instr, ExportInstruction):
                body[pos] = dataclasses.replace(instr, source=Operand(reg))
        elif edit == "drop_input" and inputs:
            inputs.pop()
        elif edit == "extra_input":
            space = inputs[0].space if inputs else MemorySpace.TEXTURE
            inputs.append(InputDecl(len(inputs), space, kernel.dtype))
        elif edit == "extra_output":
            space = outputs[0].space if outputs else MemorySpace.GLOBAL
            outputs.append(OutputDecl(len(outputs), space, kernel.dtype))
        elif edit == "drop_outputs":
            outputs = []
        elif edit == "flip_mode":
            mode = (
                ShaderMode.COMPUTE
                if mode is ShaderMode.PIXEL
                else ShaderMode.PIXEL
            )
    return dataclasses.replace(
        kernel,
        mode=mode,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        body=tuple(body),
    )


class TestErrorOnlyILChecks:
    @pytest.mark.parametrize("name", sorted(IL_FIXTURES))
    def test_check_kernel_output_is_unchanged(self, name):
        found = [
            (
                d.code,
                str(d.location) if d.location is not None else None,
                d.message,
            )
            for d in check_kernel(IL_FIXTURES[name])
        ]
        assert found == PINNED_IL_DIAGNOSTICS[name]

    @pytest.mark.parametrize("name", sorted(IL_FIXTURES))
    def test_validate_agrees_on_fixtures(self, name):
        assert_validate_agrees_with_check_kernel(IL_FIXTURES[name])

    @settings(max_examples=200, deadline=None)
    @given(kernel=mutated_figure3_kernels())
    def test_validate_agrees_on_mutated_figure3_kernels(self, kernel):
        assert_validate_agrees_with_check_kernel(kernel)

    def test_differential_pass_check_reports_the_same_errors(self):
        kernel = IL_FIXTURES["clean"]
        broken = IL_FIXTURES["several"]
        found = check_il_pass(kernel, broken, "breaks_everything")
        assert [d.code for d in found] == ["V202"]
        for failure in errors(check_kernel(broken)):
            assert failure.message in found[0].message


# ---- ISA-level known-bad programs ------------------------------------------

def gpr(index, negate=False):
    return Value(ValueLocation.GPR, index, negate)


def ctemp(index):
    return Value(ValueLocation.CLAUSE_TEMP, index)


def mov(slot, dest, source):
    return ALUOp(slot, ILOp.MOV, dest, (source,))


def make_program(clauses, gpr_count=2, clause_temp_count=0):
    kernel = make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)])
    return ISAProgram(
        kernel=kernel,
        clauses=tuple(clauses),
        gpr_count=gpr_count,
        clause_temp_count=clause_temp_count,
    )


def tex_fetch(dest_index, resource=0, space=MemorySpace.TEXTURE):
    return FetchInstr(gpr(dest_index), resource, space)


def store(source, target=0):
    return StoreInstr(target, MemorySpace.COLOR_BUFFER, source)


class TestISADiagnostics:
    def test_v101_non_terminal_export_clause(self):
        program = make_program(
            [
                ExportClause((store(gpr(0)),)),
                ExportClause((store(gpr(0)),)),
            ]
        )
        assert "V101" in codes(check_program(program))

    def test_v101_program_not_ending_in_export(self):
        # ISAProgram.__post_init__ enforces the terminal export, so build
        # the illegal shape by bypassing it.
        legal = make_program(
            [
                TEXClause((tex_fetch(1),)),
                ExportClause((store(gpr(1)),)),
            ]
        )
        broken = force(
            ISAProgram,
            kernel=legal.kernel,
            clauses=(TEXClause((tex_fetch(1),)),),
            gpr_count=2,
            clause_temp_count=0,
        )
        assert "V101" in codes(check_program(broken))

    def test_v102_clause_temp_read_without_definition(self):
        program = make_program(
            [
                ALUClause((Bundle((mov("x", gpr(1), ctemp(0)),)),)),
                ExportClause((store(gpr(1)),)),
            ],
            clause_temp_count=1,
        )
        assert "V102" in codes(check_program(program))

    def test_v102_clause_temp_escaping_to_export(self):
        program = make_program(
            [
                TEXClause((tex_fetch(1),)),
                ALUClause((Bundle((mov("x", ctemp(0), gpr(1)),)),)),
                ExportClause((store(ctemp(0)),)),
            ],
            clause_temp_count=1,
        )
        assert "V102" in codes(check_program(program))

    def test_v103_pv_read_in_first_bundle(self):
        program = make_program(
            [
                ALUClause(
                    (
                        Bundle(
                            (
                                mov(
                                    "x",
                                    gpr(1),
                                    Value(ValueLocation.PREVIOUS_VECTOR, 0),
                                ),
                            )
                        ),
                    )
                ),
                ExportClause((store(gpr(1)),)),
            ]
        )
        assert "V103" in codes(check_program(program))

    def test_v104_transcendental_outside_t_slot(self):
        # ALUOp.__post_init__ enforces the t-slot rule, so force the
        # illegal op to prove the verifier recomputes it independently.
        bad_op = force(
            ALUOp,
            slot="x",
            op=ILOp.SIN,
            dest=gpr(1),
            sources=(Value(ValueLocation.POSITION, 0),),
        )
        program = make_program(
            [
                ALUClause((Bundle((bad_op,)),)),
                ExportClause((store(gpr(1)),)),
            ]
        )
        assert "V104" in codes(check_program(program))

    def test_v104_duplicate_slots(self):
        dup = force(
            Bundle,
            ops=(
                mov("x", gpr(1), Value(ValueLocation.POSITION, 0)),
                mov("x", gpr(2), Value(ValueLocation.POSITION, 0)),
            ),
        )
        program = make_program(
            [
                ALUClause((dup,)),
                ExportClause((store(gpr(1)),)),
            ],
            gpr_count=3,
        )
        assert "V104" in codes(check_program(program))

    def test_v105_same_bundle_gpr_read(self):
        program = make_program(
            [
                TEXClause((tex_fetch(1), tex_fetch(2, resource=1))),
                ALUClause(
                    (
                        Bundle(
                            (
                                mov("x", gpr(2), gpr(1)),
                                mov("y", gpr(3), gpr(2)),  # same-bundle read
                            )
                        ),
                    )
                ),
                ExportClause((store(gpr(3)),)),
            ],
            gpr_count=4,
        )
        found = check_program(program)
        v105 = next(d for d in found if d.code == "V105")
        assert v105.severity is Severity.WARNING

    def test_v106_uninitialized_gpr_read(self):
        program = make_program(
            [
                ALUClause((Bundle((mov("x", gpr(1), gpr(3)),)),)),
                ExportClause((store(gpr(1)),)),
            ]
        )
        found = check_program(program)
        v106 = next(d for d in found if d.code == "V106")
        assert "R3" in v106.message

    def test_v107_dead_isa_write(self):
        program = make_program(
            [
                TEXClause((tex_fetch(1),)),
                ALUClause(
                    (
                        Bundle((mov("x", gpr(2), gpr(1)),)),  # R2 never read
                    )
                ),
                ExportClause((store(gpr(1)),)),
            ],
            gpr_count=3,
        )
        found = check_program(program)
        v107 = next(d for d in found if d.code == "V107")
        assert v107.severity is Severity.WARNING
        assert "R2" in v107.message

    def test_v108_gpr_count_mismatch(self, simple_program):
        inflated = dataclasses.replace(
            simple_program, gpr_count=simple_program.gpr_count + 3
        )
        found = check_program(inflated)
        v108 = next(d for d in found if d.code == "V108")
        assert v108.data["recomputed"] == simple_program.gpr_count

    def test_v109_oversized_clause(self):
        fetches = tuple(tex_fetch(i + 1, resource=i) for i in range(4))
        program = make_program(
            [
                TEXClause(fetches),
                ExportClause((store(gpr(1)),)),
            ],
            gpr_count=5,
        )
        found = check_program(program, max_tex_per_clause=2)
        v109 = next(d for d in found if d.code == "V109")
        assert v109.severity is Severity.WARNING

    def test_v110_mixed_space_tex_clause(self):
        program = make_program(
            [
                TEXClause(
                    (
                        tex_fetch(1),
                        tex_fetch(2, resource=1, space=MemorySpace.GLOBAL),
                    )
                ),
                ExportClause((store(gpr(1)),)),
            ],
            gpr_count=3,
        )
        assert "V110" in codes(check_program(program))

    def test_v111_clause_temp_beyond_declared_count(self):
        program = make_program(
            [
                TEXClause((tex_fetch(1),)),
                ALUClause((Bundle((mov("x", ctemp(1), gpr(1)),)),)),
                ExportClause((store(gpr(1)),)),
            ],
            clause_temp_count=1,
        )
        assert "V111" in codes(check_program(program))

    def test_compiled_program_is_clean(self, simple_program):
        assert check_program(simple_program) == []


# ---- GPR cross-check -------------------------------------------------------

class TestGPRCrossCheck:
    @pytest.mark.parametrize("inputs", [2, 4, 8, 16, 32])
    def test_recomputed_count_matches_regalloc(self, inputs):
        kernel = generate_generic(
            KernelParams(inputs=inputs, alu_fetch_ratio=1.0)
        )
        program = compile_kernel(kernel)
        assert recomputed_gpr_count(program) == program.gpr_count

    @pytest.mark.parametrize("step", [0, 2, 7])
    def test_register_usage_kernels_match(self, step):
        kernel = generate_register_usage(
            KernelParams(inputs=64, space=8, step=step)
        )
        program = compile_kernel(kernel)
        assert recomputed_gpr_count(program) == program.gpr_count

    def test_max_live_excludes_reserved_r0(self, simple_program):
        assert max_live_gprs(simple_program) == simple_program.gpr_count - 1


def quadratic_max_live(intervals: list[GPRInterval]) -> int:
    """The O(n^2) max-live definition the sweep line replaced (reference)."""
    live = [i for i in intervals if i.index != 0]
    best = 0
    for interval in live:
        overlap = sum(
            1
            for other in live
            if other.start <= interval.start <= other.end
        )
        best = max(best, overlap)
    return best


#: Intervals over a few positions, so ties and zero-length ranges are common.
gpr_intervals = st.lists(
    st.builds(
        lambda index, start, length: GPRInterval(index, start, start + length),
        st.integers(0, 5),
        st.integers(0, 10),
        st.integers(0, 4),
    ),
    max_size=40,
)


class TestSweepLineMaxLive:
    @settings(max_examples=300, deadline=None)
    @given(intervals=gpr_intervals)
    def test_matches_quadratic_definition(self, intervals):
        assert peak_live_gprs(intervals) == quadratic_max_live(intervals)

    @pytest.mark.parametrize(
        "spans, expected",
        [
            ([], 0),
            ([(0, 0, 9)], 0),  # R0 never counts
            ([(1, 3, 3), (2, 3, 3), (3, 3, 3)], 3),  # zero-length, one position
            ([(1, 0, 2), (2, 2, 4)], 2),  # closed: touching ranges overlap
            ([(1, 0, 1), (2, 2, 4)], 1),
            ([(1, 0, 5), (2, 1, 1), (3, 2, 2), (4, 5, 5)], 2),
        ],
    )
    def test_closed_interval_edge_cases(self, spans, expected):
        intervals = [GPRInterval(*span) for span in spans]
        assert peak_live_gprs(intervals) == expected
        assert quadratic_max_live(intervals) == expected

    @pytest.mark.parametrize(
        "kernel",
        [
            generate_generic(KernelParams(inputs=n, alu_fetch_ratio=r))
            for n, r in [(2, 0.5), (8, 1.0), (16, 4.0)]
        ]
        + [
            generate_register_usage(KernelParams(inputs=64, space=8, step=s))
            for s in (0, 2, 7)
        ],
        ids=lambda k: k.name,
    )
    def test_compiled_programs_match_quadratic_definition(self, kernel):
        program = compile_kernel(kernel)
        intervals = gpr_live_intervals(program)
        assert max_live_gprs(program) == quadratic_max_live(intervals)
        assert recomputed_gpr_count(program) == program.gpr_count


# ---- differential pass validation ------------------------------------------

def _wrong_op_pass(kernel: ILKernel):
    """An intentionally broken pass: rewrites the first ADD into a MUL."""
    body = list(kernel.body)
    for index, instr in enumerate(body):
        if isinstance(instr, ALUInstruction) and instr.op is ILOp.ADD:
            body[index] = ALUInstruction(ILOp.MUL, instr.dest, instr.sources)
            break
    return kernel.with_body(tuple(body)), 1


def _drop_instruction_pass(kernel: ILKernel):
    """A broken pass that deletes a live instruction (breaks validity)."""
    body = [
        instr
        for instr in kernel.body
        if not isinstance(instr, ALUInstruction)
    ]
    return kernel.with_body(tuple(body)), 1


class TestDifferentialValidation:
    def test_seeded_inputs_are_deterministic(self, simple_kernel):
        a = seeded_inputs(simple_kernel)
        b = seeded_inputs(simple_kernel)
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        assert seeded_constants(simple_kernel) == seeded_constants(
            simple_kernel
        )

    def test_identity_pass_is_clean(self, simple_kernel):
        assert check_il_pass(simple_kernel, simple_kernel, "identity") == []

    def test_semantic_drift_detected_v201(self, simple_kernel):
        broken, _ = _wrong_op_pass(simple_kernel)
        found = check_il_pass(simple_kernel, broken, "wrong-op")
        assert codes(found) == {"V201"}

    def test_validity_break_detected_v202(self, simple_kernel):
        broken, _ = _drop_instruction_pass(simple_kernel)
        found = check_il_pass(simple_kernel, broken, "drop-instr")
        assert codes(found) == {"V202"}

    def test_run_verified_pass_raises_on_drift(self, simple_kernel):
        with pytest.raises(PassValidationError, match="V201"):
            run_verified_pass(simple_kernel, _wrong_op_pass, "wrong-op")

    def test_run_verified_pass_returns_result_when_clean(self, simple_kernel):
        out = run_verified_pass(
            simple_kernel, lambda k: (k, 0), "identity"
        )
        assert out is simple_kernel

    def test_lowering_check_is_clean_for_compiled(self, simple_kernel):
        program = compile_kernel(simple_kernel)
        assert check_lowering(simple_kernel, program) == []

    def test_lowering_drift_detected_v203(self, simple_kernel):
        program = compile_kernel(simple_kernel)
        # Corrupt the terminal export so it stores the position register.
        exp = program.clauses[-1]
        corrupted_store = dataclasses.replace(
            exp.stores[0], source=Value(ValueLocation.POSITION, 0)
        )
        corrupted = dataclasses.replace(
            program,
            clauses=program.clauses[:-1]
            + (dataclasses.replace(exp, stores=(corrupted_store,)),),
        )
        assert "V203" in codes(check_lowering(simple_kernel, corrupted))

    def test_pipeline_fails_loudly_on_broken_dce(
        self, simple_kernel, monkeypatch
    ):
        import repro.compiler.pipeline as pipeline

        monkeypatch.setattr(
            pipeline, "eliminate_dead_code", _wrong_op_pass
        )
        with pytest.raises(PassValidationError, match="eliminate_dead_code"):
            compile_kernel(simple_kernel, verify=True)

    def test_pipeline_skips_validation_when_verify_off(
        self, simple_kernel, monkeypatch
    ):
        import repro.compiler.pipeline as pipeline

        monkeypatch.setattr(
            pipeline, "eliminate_dead_code", _wrong_op_pass
        )
        # verify=False compiles without noticing — that is the trade-off
        # the default-on test/suite configuration exists to cover.
        program = compile_kernel(simple_kernel, verify=False)
        assert program.gpr_count >= 1


# ---- the negate-modifier lowering fix --------------------------------------

class TestNegateLowering:
    def _negate_kernel(self):
        body = (
            sample(0, 0),
            ALUInstruction(
                ILOp.SUB,
                temp(1),
                (Operand(temp(0)), Operand(temp(0), negate=True)),
            ),
            ALUInstruction(
                ILOp.ADD,
                temp(2),
                (Operand(temp(1)), Operand(temp(1))),
            ),
            export(0, 2),
        )
        return make_kernel(body, name="negate_regression")

    def test_negate_survives_lowering(self):
        program = compile_kernel(self._negate_kernel(), verify=True)
        negated = [
            src
            for clause in program.clauses
            if isinstance(clause, ALUClause)
            for bundle in clause.bundles
            for op in bundle.ops
            for src in op.sources
            if src.negate
        ]
        assert negated, "negate modifier was dropped during lowering"

    def test_negate_execution_matches_il(self):
        kernel = self._negate_kernel()
        program = compile_kernel(kernel)
        inputs = seeded_inputs(kernel)
        il_out = execute_kernel(kernel, inputs, (4, 4))
        isa_out = execute_program(program, inputs, (4, 4))
        # r0 - (-r0) == 2*r0; doubled again by the ADD.
        np.testing.assert_array_equal(il_out[0], isa_out[0])
        np.testing.assert_allclose(il_out[0], 4.0 * inputs[0])


# ---- lint entry point ------------------------------------------------------

class TestLintKernel:
    def test_clean_kernel(self, simple_kernel):
        report = lint_kernel(simple_kernel)
        assert report.clean
        assert report.program is not None
        assert report.exit_code() == 0
        assert "clean" in report.format()

    def test_bad_kernel_collects_all(self):
        kernel = make_kernel(
            [add(1, 7, 7), export(0, 1)], inputs=1, outputs=2
        )
        report = lint_kernel(kernel)
        assert not report.clean
        assert report.program is None  # errors stop before lowering
        assert report.error_count >= 3
        assert report.exit_code() == 1
        record = report.to_json()
        assert record["clean"] is False
        assert len(record["diagnostics"]) == len(report.diagnostics)

    def test_warning_only_kernel_strict_gate(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), add(2, 1, 1), export(0, 1)]
        )
        report = lint_kernel(kernel)
        assert report.error_count == 0
        assert report.warning_count >= 1
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_verification_context_manager(self, simple_kernel, monkeypatch):
        import repro.compiler.pipeline as pipeline

        monkeypatch.setattr(
            pipeline, "eliminate_dead_code", _wrong_op_pass
        )
        with verification(False):
            compile_kernel(simple_kernel)  # broken pass goes unnoticed
        with verification(True):
            with pytest.raises(PassValidationError):
                compile_kernel(simple_kernel)


# ---- every generator is verifier-clean -------------------------------------

GENERATORS = {
    "generic": lambda mode, dtype: generate_generic(
        KernelParams(inputs=4, alu_fetch_ratio=1.0, mode=mode, dtype=dtype)
    ),
    "clause": lambda mode, dtype: generate_clause_usage(
        KernelParams(inputs=4, alu_fetch_ratio=2.0, mode=mode, dtype=dtype)
    ),
    "register": lambda mode, dtype: generate_register_usage(
        KernelParams(inputs=64, space=8, step=4, mode=mode, dtype=dtype)
    ),
}


class TestGeneratorsVerifierClean:
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    @pytest.mark.parametrize(
        "mode", [ShaderMode.PIXEL, ShaderMode.COMPUTE]
    )
    @pytest.mark.parametrize(
        "dtype", [DataType.FLOAT, DataType.FLOAT4]
    )
    def test_kernel_is_verifier_clean(self, generator, mode, dtype):
        kernel = GENERATORS[generator](mode, dtype)
        report = lint_kernel(kernel)
        assert report.clean, report.format()

    @pytest.mark.parametrize("space,step", [(8, 0), (8, 2), (8, 7)])
    def test_register_usage_sweep_clean(self, space, step):
        kernel = generate_register_usage(
            KernelParams(inputs=64, space=space, step=step)
        )
        report = lint_kernel(kernel)
        assert report.clean, report.format()


# ---- shader-mode aliases ---------------------------------------------------

class TestModeAliases:
    def test_ps_cs_aliases(self):
        assert ShaderMode.from_name("ps") is ShaderMode.PIXEL
        assert ShaderMode.from_name("cs") is ShaderMode.COMPUTE
        assert ShaderMode.from_name("Pixel") is ShaderMode.PIXEL

    def test_unknown_mode_still_rejected(self):
        with pytest.raises(ValueError, match="unknown shader mode"):
            ShaderMode.from_name("vertex")


# ---- in-pipeline verification ----------------------------------------------

class TestPipelineVerification:
    def test_verify_compiled_raises_on_corrupted_program(
        self, simple_kernel
    ):
        from repro.verify import verify_compiled

        program = compile_kernel(simple_kernel)
        inflated = dataclasses.replace(
            program, gpr_count=program.gpr_count + 1
        )
        with pytest.raises(VerificationError, match="V108") as excinfo:
            verify_compiled(simple_kernel, inflated)
        assert any(
            d.code == "V108" for d in excinfo.value.diagnostics
        )

    def test_verification_error_is_compile_error(self):
        from repro.compiler import CompileError

        assert issubclass(VerificationError, CompileError)
        assert issubclass(PassValidationError, CompileError)

    def test_verify_spans_recorded(self, simple_kernel, tmp_path):
        from repro import telemetry

        manifest = tmp_path / "run.jsonl"
        with telemetry.recording(str(manifest)):
            compile_kernel(simple_kernel, verify=True)
        names = {
            r["name"]
            for r in telemetry.read_manifest(str(manifest))
            if r["type"] == "span"
        }
        assert "verify" in names
        assert "compile" in names
