import json
from fractions import Fraction

import pytest
from helpers import load_perfbench

from tdlab import forge
from tdlab.forge import (
    IngestError,
    build_split_form,
    export_instance,
    fixture,
    format_instance,
    ingest,
    leonard_phi,
    validate,
)
from tdlab.linalg import Matrix
from tdlab.tdsystem import NotTDSystemError, QRacahParams, qracah_eigenvalues

F = Fraction

W1_PARAMS = QRacahParams(1, F(2), F(3), F(5))
W2_PARAMS = QRacahParams(2, F(2), F(3), F(5))
gen = load_perfbench("gen")  # the benchmark's inputs, built without tdlab


def _validates(params, phi) -> bool:
    try:
        validate(build_split_form(params, phi), params)
    except NotTDSystemError:
        return False
    return True


class TestSplitForm:
    def test_w1_matrices(self):
        a, astar = build_split_form(W1_PARAMS, (F(1),))
        assert a == Matrix([["37/6", 0], [1, "13/6"]])
        assert astar == Matrix([["101/10", 1], [0, "29/10"]])

    def test_zero_superdiagonal_rejected(self):
        with pytest.raises(ValueError, match="^superdiagonal entries must be nonzero$"):
            build_split_form(W1_PARAMS, (F(0),))
        with pytest.raises(ValueError, match="nonzero"):
            build_split_form(W2_PARAMS, (F(1), "0/3"))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="^expected 1 superdiagonal entries$"):
            build_split_form(W1_PARAMS, (F(1), F(2)))
        with pytest.raises(ValueError, match="^expected 2 superdiagonal entries$"):
            build_split_form(W2_PARAMS, ())

    def test_phi_parsed_by_rat(self):
        """Entries may be strings or integers; each is parsed by `rat`."""
        assert build_split_form(W1_PARAMS, ("3/2",)) == build_split_form(W1_PARAMS, (F(3, 2),))
        assert build_split_form(W2_PARAMS, (1, "128")) == build_split_form(
            W2_PARAMS, (F(1), F(128)))
        with pytest.raises(ValueError, match="not a rational"):
            build_split_form(W1_PARAMS, ("1e3",))

    def test_validate_accepts_w1(self):
        sys = validate(build_split_form(W1_PARAMS, (F(1),)), W1_PARAMS)
        assert sys.dim == 2

    def test_validate_rejects_non_instance(self):
        # generic phi at d = 2 misses the tridiagonality constraint surface
        params = QRacahParams(2, F(2), F(3), F(5))
        candidate = build_split_form(params, (F(1), F(1)))
        with pytest.raises(NotTDSystemError):
            validate(candidate, params)


class TestLeonardPhi:
    @pytest.mark.parametrize("qab", [(2, 3, 5), (3, F(1, 2), 7)], ids=["q2-a3-b5", "q3-a1_2-b7"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_line_is_axiom_ii_solution_set(self, d, qab):
        """The line is all of the axiom-(ii) solutions that gen.py solves for."""
        q, a, b = map(F, qab)
        params = QRacahParams(d, q, a, b)
        *_, particular, kernel = gen.leonard_phi_line(d, q, a, b)
        direction = [x - y for x, y in zip(leonard_phi(params, 1), leonard_phi(params, 0))]
        assert direction[0] == 1
        assert len(kernel) == 1
        assert list(kernel[0]) == [kernel[0][0] * x for x in direction]
        assert leonard_phi(params, particular[0]) == tuple(particular)

    def test_d1_line_is_phi1(self):
        for phi1 in (F(1), F(2), F(-7, 3)):
            assert leonard_phi(W1_PARAMS, phi1) == (phi1,)

    def test_d1_every_nonzero_phi1_validates(self):
        for num in (-4, -3, -2, -1, 1, 2, 3, 4):
            for den in (1, 2, 3):
                assert _validates(W1_PARAMS, leonard_phi(W1_PARAMS, F(num, den)))

    def test_d2_line(self):
        for t in (F(1), F(125), F(126), F(128)):
            assert leonard_phi(W2_PARAMS, t) == (t, t + 126)
            assert _validates(W2_PARAMS, (t, t + 126))

    def test_off_line_grid_points_refused_at_d2(self):
        grid = [F(n, k) for n in (-1, 1) for k in (1, 2)]
        for phi in ((x, y) for x in grid for y in grid):
            assert leonard_phi(W2_PARAMS, phi[0]) != phi
            assert not _validates(W2_PARAMS, phi)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_companion_refused(self, d):
        # c = phi_1 - (th*_1 - th*_0)(th_0 - th_d) is the companion's first entry
        params = QRacahParams(d, F(2), F(3), F(5))
        th, ts = qracah_eigenvalues(params)
        phi = leonard_phi(params, (ts[1] - ts[0]) * (th[0] - th[d]))
        assert all(phi)
        with pytest.raises(NotTDSystemError, match=r"axiom\.iv"):
            validate(build_split_form(params, phi), params)

    def test_zero_entry_refused(self):
        # phi_2 = phi_1 + 126 vanishes at phi_1 = -126
        with pytest.raises(ValueError, match="nonzero"):
            build_split_form(W2_PARAMS, leonard_phi(W2_PARAMS, -126))


class TestFixtures:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fixture_builds(self, d):
        sys = fixture(d)
        assert sys.d == d
        assert sys.params.q == 2

    def test_fixture_phi_on_line(self):
        params = QRacahParams(3, F(2), F(3), F(5))
        assert leonard_phi(params, F(21, 2)) == (F(21, 2), F(41255, 64), F(672))
        assert fixture(3).Astar[0, 1] == F(21, 2)


class TestRoundTrip:
    def test_export_ingest_byte_identical(self, tmp_path):
        sys = fixture(2)
        path = tmp_path / "instance.json"
        export_instance(sys, path)
        first = path.read_bytes()
        reread = ingest(path)
        export_instance(reread, path)
        assert path.read_bytes() == first

    def test_exported_values(self, tmp_path):
        sys = fixture(1)
        data = json.loads(format_instance(sys))
        assert data["q"] == "2"
        assert data["A"] == [["37/6", "0"], ["1", "13/6"]]
        assert data["Astar"] == [["101/10", "1"], ["0", "29/10"]]

    def test_malformed_rational_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(1)))
        data["q"] = "1/0"
        path.write_text(json.dumps(data))
        with pytest.raises(IngestError, match="malformed"):
            ingest(path)

    def test_exponent_notation_rejected(self):
        # Fraction would expand the entry to 10^400000 and validation refuse
        # the pair; the entry is refused as it is read.
        data = json.loads(format_instance(fixture(1)))
        data["A"][0][0] = "1e400000"
        with pytest.raises(IngestError, match="malformed.*not a rational"):
            forge.parse_instance_dict(data)

    def test_missing_eigenvalue_named_by_index(self, tmp_path):
        # theta_0 = a q + 1 / (a q) has more digits than str() converts.
        path = tmp_path / "big_q.json"
        data = json.loads(format_instance(fixture(1)))
        data["q"] = "1" + "0" * 3000
        path.write_text(json.dumps(data))
        with pytest.raises(NotTDSystemError, match="A: theta_0 is not an eigenvalue$"):
            ingest(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(1)))
        del data["Astar"]
        path.write_text(json.dumps(data))
        with pytest.raises(IngestError):
            ingest(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(2)))
        data["d"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(IngestError, match="shape"):
            ingest(path)

    def test_oversized_d_rejected_before_parameters(self, tmp_path, monkeypatch):
        path = tmp_path / "big.json"
        data = json.loads(format_instance(fixture(1)))
        data["d"] = 30000
        path.write_text(json.dumps(data))

        def no_params(*args, **kwargs):
            raise AssertionError("QRacahParams built for a mismatched shape")

        monkeypatch.setattr(forge, "QRacahParams", no_params)
        with pytest.raises(IngestError, match="shape"):
            ingest(path)

    def test_d_beyond_the_limit_rejected_before_parameters(self, tmp_path, monkeypatch):
        d = forge.MAX_DIAMETER + 1
        zeros = [["0"] * (d + 1) for _ in range(d + 1)]
        path = tmp_path / "big.json"
        data = json.loads(format_instance(fixture(1)))
        data.update(d=d, A=zeros, Astar=zeros)
        path.write_text(json.dumps(data))

        def no_params(*args, **kwargs):
            raise AssertionError("QRacahParams built beyond the limit")

        monkeypatch.setattr(forge, "QRacahParams", no_params)
        with pytest.raises(IngestError, match="exceeds the limit"):
            ingest(path)

    @pytest.mark.parametrize("d", ["1", 1.5, None])
    def test_non_integer_d_rejected(self, tmp_path, d):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(1)))
        data["d"] = d
        path.write_text(json.dumps(data))
        with pytest.raises(IngestError):
            ingest(path)

    @pytest.mark.parametrize("d", [True, 1.0], ids=repr)
    def test_d_of_a_type_other_than_int_rejected(self, d):
        # With the matrices of fixture 1 both would pass the shape check as 1.
        data = json.loads(format_instance(fixture(1)))
        data["d"] = d
        with pytest.raises(IngestError, match="^malformed instance file: d must be an int"):
            forge.parse_instance_dict(data)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(IngestError, match="cannot read"):
            ingest(path)

    def test_undecodable_text_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"d": 1}')
        with pytest.raises(IngestError, match="cannot read"):
            ingest(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(IngestError, match="JSON object"):
            ingest(path)

    def test_matrices_must_validate(self, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(1)))
        data["A"] = [["1", "0"], ["0", "2"]]  # diagonal: not a valid instance
        path.write_text(json.dumps(data))
        with pytest.raises(NotTDSystemError):
            ingest(path)
