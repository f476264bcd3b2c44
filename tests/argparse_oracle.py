"""The argparse parser fanoslope's command line used to be read with.

``reference_parser`` builds the same tree of parsers as the command table
in ``fanoslope.cli`` describes, with abbreviated options refused, so a test
can read one argv both ways and compare the namespaces and exit codes.
"""

import argparse


def _add_format(parser, *choices):
    """Give ``parser`` a --format option whose first choice is the default."""
    parser.add_argument(
        "--format",
        choices=choices,
        default=choices[0],
        help=f"output format (default: {choices[0]})",
    )


def reference_parser():
    parser = argparse.ArgumentParser(
        prog="fanoslope",
        description=(
            "Exact slope-stability verdicts, quotient-slope sweeps, and "
            "Seshadri certificates for curve scenarios"
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="stability verdict per scenario", allow_abbrev=False
    )
    _add_format(p_classify, "text", "csv", "json")
    p_classify.add_argument("file", help="JSON scenario file")

    p_sweep = sub.add_parser(
        "sweep", help="quotient-slope table over a grid", allow_abbrev=False
    )
    _add_format(p_sweep, "csv", "json")
    p_sweep.add_argument("file", help="JSON scenario file")
    p_sweep.add_argument("--scenario", required=True, help="scenario name")
    p_sweep.add_argument(
        "--grid", required=True, help="comma-separated rational lambda values"
    )
    for p_interval in (p_classify, p_sweep):
        p_interval.add_argument(
            "--open-interval",
            action="store_true",
            help="use the open interval (0, epsilon); ties at the endpoint no "
            "longer destabilize",
        )

    p_sesh = sub.add_parser(
        "seshadri",
        help="evaluate the Seshadri rule pipeline for one scenario",
        allow_abbrev=False,
    )
    _add_format(p_sesh, "text", "csv", "json")
    p_sesh.add_argument("file", help="JSON scenario file")
    p_sesh.add_argument("--scenario", required=True, help="scenario name")
    return parser

