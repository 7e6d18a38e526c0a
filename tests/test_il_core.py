"""Tests for IL types, opcodes, instructions and the kernel container."""

import copy
import dataclasses
import pickle

import pytest

from repro.compiler import compile_kernel
from repro.il import (
    ALUInstruction,
    DataType,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    ILBuilder,
    ILOp,
    MemorySpace,
    Operand,
    SampleInstruction,
    ShaderMode,
    defuse,
)
from repro.il.defuse import def_use
from repro.il.instructions import (
    Register,
    RegisterFile,
    const,
    operand,
    position,
    temp,
)
from repro.il.module import ILKernel, InputDecl, OutputDecl
from repro.il.parser import parse_il
from repro.il.text import emit_il
from repro.kernels import KernelParams, generate_generic
from repro.suite import BENCHMARKS


class TestDataType:
    @pytest.mark.parametrize(
        "dtype, components, size",
        [
            (DataType.FLOAT, 1, 4),
            (DataType.FLOAT2, 2, 8),
            (DataType.FLOAT4, 4, 16),
        ],
    )
    def test_component_geometry(self, dtype, components, size):
        assert dtype.components == components
        assert dtype.bytes == size

    def test_from_name_roundtrip(self):
        for dtype in DataType:
            assert DataType.from_name(dtype.value) is dtype

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            DataType.from_name("double")


class TestShaderMode:
    def test_il_prefixes(self):
        assert ShaderMode.PIXEL.il_prefix == "il_ps_2_0"
        assert ShaderMode.COMPUTE.il_prefix == "il_cs_2_0"

    def test_from_name(self):
        assert ShaderMode.from_name("Pixel") is ShaderMode.PIXEL
        with pytest.raises(ValueError):
            ShaderMode.from_name("geometry")


class TestMemorySpace:
    def test_input_output_classification(self):
        assert MemorySpace.TEXTURE.is_input_space
        assert MemorySpace.GLOBAL.is_input_space
        assert MemorySpace.GLOBAL.is_output_space
        assert MemorySpace.COLOR_BUFFER.is_output_space
        assert not MemorySpace.COLOR_BUFFER.is_input_space
        assert not MemorySpace.TEXTURE.is_output_space


class TestOpcodes:
    def test_transcendental_flags(self):
        assert ILOp.SIN.transcendental
        assert ILOp.RCP.transcendental
        assert not ILOp.ADD.transcendental
        assert not ILOp.MAD.transcendental

    def test_arities(self):
        assert ILOp.MOV.arity == 1
        assert ILOp.ADD.arity == 2
        assert ILOp.MAD.arity == 3

    def test_from_mnemonic(self):
        assert ILOp.from_mnemonic("ADD") is ILOp.ADD
        with pytest.raises(ValueError):
            ILOp.from_mnemonic("xor")


class TestRegistersAndOperands:
    def test_register_rendering(self):
        assert str(temp(12)) == "r12"
        assert str(const(3)) == "cb0[3]"
        assert str(position()) == "v0"

    def test_operand_negation(self):
        assert str(Operand(temp(1), negate=True)) == "-r1"

    def test_operand_coercion_flips_negate(self):
        op = operand(temp(2), negate=True)
        assert op.negate
        assert not operand(op, negate=True).negate

    def test_registers_are_interned(self):
        assert Register(RegisterFile.TEMP, 7) is temp(7)
        assert Register(RegisterFile.CONST, 3) is const(3)
        assert Register(RegisterFile.POSITION, 0) is position()
        assert Register(file=RegisterFile.TEMP, index=7) is temp(7)

    def test_distinct_registers_stay_distinct(self):
        regs = [
            Register(file, index)
            for file in RegisterFile
            for index in (0, 1, 7, 8)
        ]
        assert len({id(r) for r in regs}) == len(regs)
        assert len(set(regs)) == len(regs)
        assert temp(1) != temp(2)
        assert temp(1) != Register(RegisterFile.OUTPUT, 1)

    def test_parse_round_trip_yields_the_builders_registers(self):
        kernel = generate_generic(KernelParams(inputs=4, constants=2))
        parsed = parse_il(emit_il(kernel))
        for built, read in zip(kernel.body, parsed.body, strict=True):
            for a, b in zip(
                built.defined_registers() + built.used_registers(),
                read.defined_registers() + read.used_registers(),
                strict=True,
            ):
                assert a is b
        assert parsed == kernel

    @pytest.mark.parametrize(
        "clone",
        [
            lambda r: pickle.loads(pickle.dumps(r)),
            copy.copy,
            copy.deepcopy,
            dataclasses.replace,
        ],
        ids=["pickle", "copy", "deepcopy", "replace"],
    )
    def test_copies_return_the_interned_object(self, clone):
        reg = temp(5)
        str(reg), operand(reg)  # fill the per-register memos
        assert clone(reg) is reg
        assert clone(const(2)) is const(2)

    def test_replace_with_a_new_index_interns_too(self):
        assert dataclasses.replace(temp(5), index=6) is temp(6)

    def test_pickle_carries_no_memo(self):
        reg = temp(9)
        str(reg), operand(reg)
        assert {"_str", "_as_op"} <= set(reg.__dict__)
        data = pickle.dumps(reg)
        assert b"_str" not in data and b"_as_op" not in data
        assert pickle.dumps(Register(RegisterFile.TEMP, 9)) == data

    def test_kernel_pickle_shares_registers(self):
        kernel = generate_generic(KernelParams(inputs=3))
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone == kernel
        assert clone.body[-1].source.register is kernel.body[-1].source.register


class TestInstructions:
    def test_alu_arity_enforced(self):
        with pytest.raises(ValueError, match="expects 2 sources"):
            ALUInstruction(ILOp.ADD, temp(0), (operand(temp(1)),))

    def test_alu_def_use_sets(self):
        instr = ALUInstruction(
            ILOp.ADD, temp(2), (operand(temp(0)), operand(temp(1)))
        )
        assert instr.defined_registers() == (temp(2),)
        assert set(instr.used_registers()) == {temp(0), temp(1)}

    def test_sample_rendering(self):
        instr = SampleInstruction(temp(1), 0, operand(position()))
        assert str(instr) == "sample_resource(0)_sampler(0) r1, v0"

    def test_global_load_with_offset(self):
        instr = GlobalLoadInstruction(temp(1), operand(position()), offset=3)
        assert str(instr) == "mov r1, g[v0 + 3]"

    def test_global_store_uses(self):
        instr = GlobalStoreInstruction(operand(position()), operand(temp(5)))
        assert temp(5) in instr.used_registers()
        assert instr.defined_registers() == ()

    def test_export_rendering(self):
        assert str(ExportInstruction(2, operand(temp(9)))) == "mov o2, r9"


class TestILKernel:
    def _kernel(self, **overrides):
        body = (
            SampleInstruction(temp(0), 0, operand(position())),
            SampleInstruction(temp(1), 1, operand(position())),
            ALUInstruction(ILOp.ADD, temp(2), (operand(temp(0)), operand(temp(1)))),
            ExportInstruction(0, operand(temp(2))),
        )
        fields = dict(
            name="k",
            mode=ShaderMode.PIXEL,
            dtype=DataType.FLOAT,
            inputs=(
                InputDecl(0, MemorySpace.TEXTURE, DataType.FLOAT),
                InputDecl(1, MemorySpace.TEXTURE, DataType.FLOAT),
            ),
            outputs=(OutputDecl(0, MemorySpace.COLOR_BUFFER, DataType.FLOAT),),
            body=body,
        )
        fields.update(overrides)
        return ILKernel(**fields)

    def test_counts(self):
        kernel = self._kernel()
        assert kernel.alu_instruction_count() == 1
        assert kernel.fetch_instruction_count() == 2
        assert kernel.store_instruction_count() == 1

    def test_input_space_uniform(self):
        assert self._kernel().input_space() is MemorySpace.TEXTURE

    def test_mixed_input_spaces_rejected(self):
        kernel = self._kernel(
            inputs=(
                InputDecl(0, MemorySpace.TEXTURE, DataType.FLOAT),
                InputDecl(1, MemorySpace.GLOBAL, DataType.FLOAT),
            )
        )
        with pytest.raises(ValueError, match="mixes input spaces"):
            kernel.input_space()

    def test_output_space_requires_outputs(self):
        kernel = self._kernel(outputs=())
        with pytest.raises(ValueError, match="no outputs"):
            kernel.output_space()

    def test_invalid_input_decl_space(self):
        with pytest.raises(ValueError, match="invalid space"):
            InputDecl(0, MemorySpace.COLOR_BUFFER, DataType.FLOAT)

    def test_invalid_output_decl_space(self):
        with pytest.raises(ValueError, match="invalid space"):
            OutputDecl(0, MemorySpace.TEXTURE, DataType.FLOAT)

    def test_summary_mentions_mode_and_counts(self):
        summary = self._kernel().summary()
        assert "pixel" in summary
        assert "in=2" in summary


class TestDefUseIndex:
    def test_pickle_drops_the_index_and_rebuilds_an_equal_one(self):
        kernel = generate_generic(KernelParams(inputs=4, constants=2))
        index = def_use(kernel)
        assert kernel.__dict__["_def_use"] is index
        clone = pickle.loads(pickle.dumps(kernel))
        assert "_def_use" not in clone.__dict__
        assert "_def_use" in kernel.__dict__
        assert def_use(clone) == index

    def test_index_matches_every_fast_suite_kernel(self):
        kernels = {
            id(kernel): kernel
            for figure in sorted(BENCHMARKS)
            for _spec, _value, kernel, _unit in BENCHMARKS[figure]().plan_units(
                fast=True
            )
        }
        for kernel in kernels.values():
            index = def_use(kernel)
            assert len(index.defs) == len(index.uses) == len(kernel.body)
            for instr, dest, uses in zip(kernel.body, index.defs, index.uses):
                assert (() if dest is None else (dest,)) == (
                    instr.defined_registers()
                )
                assert uses == instr.used_registers()

    @staticmethod
    def _kernel_with_dead_add() -> ILKernel:
        builder = ILBuilder("dead_add", ShaderMode.PIXEL, DataType.FLOAT)
        value = builder.sample(builder.declare_input())
        out = builder.declare_output()
        builder.add(value, value)  # dead: DCE derives a second kernel
        builder.store(out, value)
        return builder.build()

    @pytest.mark.parametrize("dead_code", [False, True])
    def test_index_is_built_once_per_kernel_object(self, monkeypatch, dead_code):
        built: list[ILKernel] = []
        real_build = defuse._build_index

        def counting_build(kernel):
            built.append(kernel)
            return real_build(kernel)

        monkeypatch.setattr(defuse, "_build_index", counting_build)
        if dead_code:
            kernel = self._kernel_with_dead_add()
        else:
            kernel = generate_generic(KernelParams(inputs=8, alu_fetch_ratio=2.0))
        program = compile_kernel(kernel, verify=True)
        expected = [kernel, program.kernel] if dead_code else [kernel]
        assert [id(k) for k in built] == [id(k) for k in expected]
