"""IL assembly parser.

Parses the dialect produced by :func:`repro.il.text.emit_il` back into an
:class:`~repro.il.module.ILKernel`.  Useful for storing generated kernels as
text fixtures and for users who want to hand-write small IL programs.
"""

from __future__ import annotations

import re

from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    ILInstruction,
    Operand,
    Register,
    RegisterFile,
    SampleInstruction,
)
from repro.il.module import ConstantDecl, ILKernel, InputDecl, OutputDecl
from repro.il.opcodes import ILOp
from repro.il.types import DataType, MemorySpace, ShaderMode


class ILParseError(ValueError):
    """Raised on malformed IL text."""

    def __init__(self, line_no: int, line: str, message: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line!r}")
        self.line_no = line_no
        self.line = line


_PREFIX = {
    "il_ps_2_0": ShaderMode.PIXEL,
    "il_cs_2_0": ShaderMode.COMPUTE,
}

_RE_RESOURCE = re.compile(
    r"dcl_resource_id\((\d+)\)_type\(2d,unnorm\)_fmt\((\w+)\)"
)
_RE_GLOBAL_IN = re.compile(r"dcl_global_input\((\d+)\)_fmt\((\w+)\)")
_RE_GLOBAL_OUT = re.compile(r"dcl_global_output\((\d+)\)_fmt\((\w+)\)")
_RE_COLOR_OUT = re.compile(r"dcl_output_generic o(\d+)")
_RE_CB = re.compile(r"dcl_cb cb0\[(\d+)\]")
_RE_SAMPLE = re.compile(
    r"sample_resource\((\d+)\)_sampler\(\d+\) (\S+), (\S+)"
)
_RE_GLOBAL_LOAD = re.compile(r"mov (\S+), g\[([^\]+]+)(?: \+ (\d+))?\]")
_RE_GLOBAL_STORE = re.compile(r"mov g\[([^\]+]+)(?: \+ (\d+))?\], (\S+)")
_RE_EXPORT = re.compile(r"mov o(\d+), (\S+)")
_RE_ALU = re.compile(r"([a-z0-9]+) (\S+), (.+)")
_RE_REG = re.compile(r"^(-)?(r|v|o)(\d+)$|^(-)?cb0\[(\d+)\]$")


def _parse_operand(text: str, line_no: int, line: str) -> Operand:
    match = _RE_REG.match(text.strip())
    if not match:
        raise ILParseError(line_no, line, f"bad register operand {text!r}")
    if match.group(5) is not None:
        negate = bool(match.group(4))
        return Operand(Register(RegisterFile.CONST, int(match.group(5))), negate)
    negate = bool(match.group(1))
    file = {
        "r": RegisterFile.TEMP,
        "v": RegisterFile.POSITION,
        "o": RegisterFile.OUTPUT,
    }[match.group(2)]
    return Operand(Register(file, int(match.group(3))), negate)


def _data_type(name: str, line_no: int, line: str) -> DataType:
    try:
        return DataType.from_name(name.strip())
    except ValueError as exc:
        raise ILParseError(line_no, line, str(exc)) from None


def parse_il(text: str) -> ILKernel:
    """Parse IL assembly into an (unvalidated fields validated at build) kernel."""
    mode: ShaderMode | None = None
    name = "parsed"
    dtype: DataType | None = None
    metadata: dict = {}
    inputs: list[InputDecl] = []
    outputs: list[OutputDecl] = []
    constants: list[ConstantDecl] = []
    body: list[ILInstruction] = []
    ended = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            comment = line[1:].strip()
            if comment.startswith("kernel:"):
                name = comment.split(":", 1)[1].strip()
            elif comment.startswith("dtype:"):
                dtype = _data_type(comment.split(":", 1)[1], line_no, line)
            elif comment.startswith("meta "):
                key, _, value = comment[5:].partition(":")
                metadata[key.strip()] = value.strip()
            continue
        if line in _PREFIX:
            mode = _PREFIX[line]
            continue
        if ended:
            raise ILParseError(line_no, line, "instruction after 'end'")
        if line == "end":
            ended = True
            continue
        if line.startswith("dcl_"):
            _parse_declaration(line, line_no, inputs, outputs, constants, dtype)
            continue
        body.append(_parse_instruction(line, line_no))

    if mode is None:
        raise ILParseError(0, "", "missing il_ps_2_0/il_cs_2_0 header")
    if not ended:
        raise ILParseError(0, "", "missing 'end'")
    if dtype is None:
        dtype = inputs[0].dtype if inputs else DataType.FLOAT

    return ILKernel(
        name=name,
        mode=mode,
        dtype=dtype,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        constants=tuple(constants),
        body=tuple(body),
        metadata=metadata,
    )


def _parse_declaration(
    line: str,
    line_no: int,
    inputs: list[InputDecl],
    outputs: list[OutputDecl],
    constants: list[ConstantDecl],
    dtype: DataType | None,
) -> None:
    if line.startswith("dcl_input_position") or line.startswith(
        "dcl_num_thread_per_group"
    ) or line.startswith("dcl_absolute_thread_id"):
        return
    if m := _RE_RESOURCE.fullmatch(line):
        fmt = _data_type(m.group(2), line_no, line)
        inputs.append(InputDecl(int(m.group(1)), MemorySpace.TEXTURE, fmt))
        return
    if m := _RE_GLOBAL_IN.fullmatch(line):
        fmt = _data_type(m.group(2), line_no, line)
        inputs.append(InputDecl(int(m.group(1)), MemorySpace.GLOBAL, fmt))
        return
    if m := _RE_GLOBAL_OUT.fullmatch(line):
        fmt = _data_type(m.group(2), line_no, line)
        outputs.append(OutputDecl(int(m.group(1)), MemorySpace.GLOBAL, fmt))
        return
    if m := _RE_COLOR_OUT.fullmatch(line):
        fallback = dtype or DataType.FLOAT
        outputs.append(
            OutputDecl(int(m.group(1)), MemorySpace.COLOR_BUFFER, fallback)
        )
        return
    if m := _RE_CB.fullmatch(line):
        fallback = dtype or DataType.FLOAT
        constants.extend(ConstantDecl(i, fallback) for i in range(int(m.group(1))))
        return
    raise ILParseError(line_no, line, "unknown declaration")


def _parse_instruction(line: str, line_no: int) -> ILInstruction:
    if m := _RE_SAMPLE.fullmatch(line):
        dest = _parse_operand(m.group(2), line_no, line).register
        coord = _parse_operand(m.group(3), line_no, line)
        return SampleInstruction(dest, int(m.group(1)), coord)
    if m := _RE_GLOBAL_STORE.fullmatch(line):
        address = _parse_operand(m.group(1), line_no, line)
        offset = int(m.group(2) or 0)
        source = _parse_operand(m.group(3), line_no, line)
        return GlobalStoreInstruction(address, source, offset)
    if m := _RE_GLOBAL_LOAD.fullmatch(line):
        dest = _parse_operand(m.group(1), line_no, line).register
        address = _parse_operand(m.group(2), line_no, line)
        offset = int(m.group(3) or 0)
        return GlobalLoadInstruction(dest, address, offset)
    if m := _RE_EXPORT.fullmatch(line):
        source = _parse_operand(m.group(2), line_no, line)
        return ExportInstruction(int(m.group(1)), source)
    if m := _RE_ALU.fullmatch(line):
        try:
            op = ILOp.from_mnemonic(m.group(1))
        except ValueError as exc:
            raise ILParseError(line_no, line, str(exc)) from None
        dest = _parse_operand(m.group(2), line_no, line).register
        sources = tuple(
            _parse_operand(part, line_no, line)
            for part in (p.strip() for p in m.group(3).split(","))
            if part
        )
        try:
            return ALUInstruction(op, dest, sources)
        except ValueError as exc:  # wrong source count for the opcode
            raise ILParseError(line_no, line, str(exc)) from None
    raise ILParseError(line_no, line, "unrecognized instruction")
