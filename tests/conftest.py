def pytest_terminal_summary(terminalreporter):
    """Show the `criterion N: PASS/FAIL` lines that the acceptance tests
    print, which output capture would otherwise hide."""
    lines = sorted(
        line
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
        for line in report.capstdout.splitlines()
        if line.startswith("criterion ")
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
