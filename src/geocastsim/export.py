"""Trace files (JSON lines) and DOT/SVG snapshots of a run."""

from __future__ import annotations

import json
from typing import Iterable

from .engine import TransmissionEvent
from .netgraph import Network, Scenario, edge_key


_SVG_SCALE = 60.0  # svg units per unit of distance

_RECORD = '{"step": %d, "mode": %s, "dir": %s, "sender": %d, "receiver": %d, "depth": %d}\n'


class _JsonText(dict):
    """JSON text of each mode and dir value (None becomes null), made once."""

    def __missing__(self, value):
        self[value] = text = json.dumps(value)
        return text


def write_trace(transcript: Iterable[TransmissionEvent], path: str) -> None:
    """One record per line, with the bytes `json.dumps` gives for the dict
    {step, mode, dir, sender, receiver, depth}, filled into a fixed template."""
    text = _JsonText()
    with open(path, "w", encoding="utf-8") as fh:
        for ev in transcript:
            fh.write(_RECORD % (ev.step, text[ev.mode], text[ev.dir], ev.sender, ev.receiver, ev.depth))


# the record keys in field order, each with the exact types it accepts (so
# no bool passes for an int) and their name in a message
_INT, _STR = ((int,), "an integer"), ((str,), "a string")
_FIELDS = {"step": _INT, "mode": _STR, "dir": ((str, type(None)), "null or a string"),
           "sender": _INT, "receiver": _INT, "depth": _INT}


def read_trace(path: str) -> list[TransmissionEvent]:
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"trace line {line_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"trace line {line_no}: expected a JSON object")
            for key, (kinds, name) in _FIELDS.items():
                if key not in rec:
                    raise ValueError(f"trace line {line_no}: missing key {key!r}")
                if type(rec[key]) not in kinds:
                    raise ValueError(f"trace line {line_no}: key {key!r} must be {name}")
            events.append(TransmissionEvent(*[rec[key] for key in _FIELDS]))
    return events


def used_edges_from_trace(events: Iterable[TransmissionEvent]) -> set[tuple[int, int]]:
    return {edge_key(ev.sender, ev.receiver) for ev in events}


def render_dot(scenario: Scenario, net: Network, used: set[tuple[int, int]]) -> str:
    lines = ["graph geocast {", "  layout=neato;", "  node [shape=point, width=0.06];"]
    for d, p in enumerate(net.positions):
        style = ', color="red"' if d == scenario.source else ""
        lines.append(f'  n{d} [pos="{p.x:.6f},{p.y:.6f}!"{style}];')
    for u, v in sorted(net.edges()):
        if (u, v) in used:
            lines.append(f"  n{u} -- n{v} [color=red, penwidth=2.0];")
        else:
            lines.append(f"  n{u} -- n{v} [color=gray70];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_svg(scenario: Scenario, net: Network, used: set[tuple[int, int]], planar: Network) -> str:
    fw, fh = scenario.field
    margin = _SVG_SCALE * 0.5
    width = fw * _SVG_SCALE + 2 * margin
    height = fh * _SVG_SCALE + 2 * margin

    def sx(x: float) -> float:
        return margin + x * _SVG_SCALE

    def sy(y: float) -> float:
        return margin + (fh - y) * _SVG_SCALE  # svg y grows downward

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect x="0" y="0" width="{width:.2f}" height="{height:.2f}" fill="white"/>',
    ]
    xmin, ymin, xmax, ymax = scenario.region.bounds
    out.append(
        f'<rect x="{sx(xmin):.2f}" y="{sy(ymax):.2f}" width="{(xmax - xmin) * _SVG_SCALE:.2f}" '
        f'height="{(ymax - ymin) * _SVG_SCALE:.2f}" fill="#d7e8f7" stroke="#5b8db8"/>'
    )
    planar_edges = set(planar.edges())
    for u, v in sorted(net.edges()):
        a, b = net.positions[u], net.positions[v]
        if (u, v) in used:
            style = 'stroke="#d03030" stroke-width="2.2"'
        elif (u, v) in planar_edges:
            style = 'stroke="#777777" stroke-width="1.2"'
        else:
            style = 'stroke="#cccccc" stroke-width="0.7"'
        out.append(f'<line x1="{sx(a.x):.2f}" y1="{sy(a.y):.2f}" '
                   f'x2="{sx(b.x):.2f}" y2="{sy(b.y):.2f}" {style}/>')
    for d, p in enumerate(net.positions):
        if d == scenario.source:
            fill, r = "#d03030", 5.0
        elif scenario.region.contains(p):
            fill, r = "#2a7d4f", 3.2
        else:
            fill, r = "#333333", 2.4
        out.append(f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" r="{r}" fill="{fill}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
