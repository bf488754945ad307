"""SARIF 2.1.0 output for the analysis CLI.

``--format sarif`` lets CI upload the report and annotate offending
lines directly on pull requests.  One run per report, its driver
listing the one rule catalogue; a whole-program finding's call chain
becomes a SARIF ``codeFlow`` so the viewer can walk the frames down to
the blocking primitive.
"""

from __future__ import annotations

import json
from typing import List

from repro.analysis.core import Finding, all_rules

__all__ = ["render_sarif"]

_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
           "master/Schemata/sarif-schema-2.1.0.json")

_LEVELS = {"error": "error", "warning": "warning", "note": "note"}


def _rule_catalogue() -> List[dict]:
    return [
        {
            "id": rule_id,
            "shortDescription": {"text": cls.description},
            "defaultConfiguration": {
                "level": _LEVELS.get(cls.severity, "warning")},
        }
        for rule_id, cls in sorted(all_rules().items())
    ]


def _location(path: str, line: int, col: int = 1) -> dict:
    region = {"startLine": max(line, 1)}
    if col > 0:
        region["startColumn"] = col
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": region,
        },
    }


def _result(finding: Finding) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [_location(finding.path, finding.line, finding.col)],
    }
    if finding.chain:
        result["codeFlows"] = [{
            "threadFlows": [{
                "locations": [
                    {
                        "location": dict(
                            _location(frame.path, frame.line),
                            message={"text": f"in {frame.function}"}),
                    }
                    for frame in finding.chain
                ],
            }],
        }]
    return result


def render_sarif(findings: List[Finding]) -> str:
    """A SARIF 2.1.0 document with one result per finding."""
    results = [_result(finding) for finding in findings]
    document = {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.analysis",
                    "informationUri":
                        "https://example.invalid/repro/analysis",
                    "rules": _rule_catalogue(),
                },
            },
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
