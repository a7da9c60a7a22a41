"""The paper-reproduction commands of ``python -m avipack``."""


class TestCli:
    def test_default_runs(self, capsys):
        from avipack.__main__ import main

        assert main([]) == 0
        output = capsys.readouterr().out
        assert "Fig. 10" in output
        assert "capability increase" in output

    def test_subcommands(self, capsys):
        from avipack.__main__ import main

        assert main(["nanopack"]) == 0
        assert "NANOPACK" in capsys.readouterr().out
        assert main(["qual"]) == 0
        assert "QUALIFICATION" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        from avipack.__main__ import main

        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_help(self, capsys):
        from avipack.__main__ import main

        assert main(["--help"]) == 0
        assert "Usage" in capsys.readouterr().out
