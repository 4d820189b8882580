"""OBJ output of ``pedalis sample``, locked by sha256 digest.

Each case meshes one surface under one construct on a 30x30 grid with
d = 1/2, in process, and compares the sha256 of the OBJ file with the
digest recorded when the case was added.  Vertices are written with 12
significant digits, so a change of the chart arithmetic that moves any of
them fails here.  The cases are the 9 gallery entries and six config
surfaces (polar, point, dual, ruled, and a point and a dual surface
written with ``^``) under every construct they support.
"""

import hashlib

import pytest

from pedalis import cli

CONFIGS = {
    # the plane z = 1 as a polar chart
    "polar": ("kind = polar\nsx = cos(u)*cos(v)\nsy = cos(v)*sin(u)\nsz = sin(v)\n"
              "r = 1/sin(v)\n", "umin = 0\numax = 2*pi\nvmin = 0.2\nvmax = 1.3\n"),
    # a torus
    "point": ("kind = point\nfx = (2 + cos(v))*cos(u)\nfy = (2 + cos(v))*sin(u)\n"
              "fz = sin(v)\n", "umin = 0\numax = 2*pi\nvmin = 0\nvmax = 2*pi\n"),
    # planes with |n| = 2 around the sphere of center (2, 0, 0) and radius 1
    "dual": ("kind = dual\nnx = 2*cos(u)*cos(v)\nny = 2*cos(v)*sin(u)\nnz = 2*sin(v)\n"
             "e = 2*(2*cos(u)*cos(v) + 1)\n",
             "umin = 0\numax = 2*pi\nvmin = -1.2\nvmax = 1.2\n"),
    # the one-sheet hyperboloid, with constant expressions
    "ruled": ("kind = ruled\ncx = cos(u)\ncy = sin(u)\ncz = 0\n"
              "ex = -sin(u)\ney = cos(u)\nez = 1\n",
              "umin = 0\numax = 2*pi\nvmin = -1\nvmax = 1\n"),
    # `^` with integer, fractional, negative and varying exponents: a
    # surface of revolution and a support function that is not constant
    "power-point": ("kind = point\nfx = (1 + v^2/4)*cos(u)\nfy = (1 + v^2/4)*sin(u)\n"
                    "fz = v^3/3 + sqrt(2 + cos(u))^3/10 + (3/2 + sin(v))^(u/4)\n",
                    "umin = 0\numax = 2*pi\nvmin = -1\nvmax = 1\n"),
    "power-dual": ("kind = dual\nnx = cos(u)*cos(v)\nny = cos(v)*sin(u)\nnz = sin(v)\n"
                   "e = 2 + cos(u)^2*sin(v)^3/2 + (1 + v^2)^0.5 - (2 + cos(v))^-1\n",
                   "umin = 0\numax = 2*pi\nvmin = -1.2\nvmax = 1.2\n"),
}

CONSTRUCTS = ("self", "pedal", "inverse-pedal", "offset:1/2", "conchoid:1/2")


def sample_digest(tmp_path, surface, construct):
    """(exit code, sha256 of the OBJ or None) of one 30x30 sample run."""
    if surface in CONFIGS:
        text, domain = CONFIGS[surface]
        cfg = tmp_path / f"{surface}.cfg"
        cfg.write_text(f"[surface]\n{text}[domain]\n{domain}")
        surface = str(cfg)
    out = tmp_path / "out.obj"
    code = cli.main(["sample", "--surface", surface, "--construct", construct,
                     "--grid", "30x30", "--out", str(out)])
    if code != 0:
        return code, None
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


DIGESTS = {
    ("parabola-cyclide", "self"): "d9df24ad48ef0ad4e0f1eba26e3626db0aaf75f37dbc86fd41834d9dcddd7489",
    ("parabola-cyclide", "pedal"): "d9df24ad48ef0ad4e0f1eba26e3626db0aaf75f37dbc86fd41834d9dcddd7489",
    ("parabola-cyclide", "inverse-pedal"): "f9e95399ea67391f66a3bac7ef3151728e665ea457da782fc4d2908e9fc1011e",
    ("parabola-cyclide", "offset:1/2"): "4a078e8aaec2532cf7c475911b4094bc282ab1cf274ca2619b0fc73d154c15e0",
    ("parabola-cyclide", "conchoid:1/2"): "455c8a2c7eb327d776f7a51917956de2db62e1f34e844cbdb31a668133a22498",
    ("paraboloid-offset", "self"): "91e9c631e097f3ec23432a2ad3c772694d58227b31b611a6e8ab5812411cf807",
    ("paraboloid-offset", "pedal"): "f2b86bb078e3ffa57c6988d4fb45fba0635d640cdb88b7ea63c38324ec176573",
    ("paraboloid-offset", "inverse-pedal"): "2c4c225f75401738db9345cd682288721521f964bc4293e2d24858674c924e87",
    ("paraboloid-offset", "offset:1/2"): "9abcad008fd04bd10b724e09850b9b82fd1bf0ff589559d40d63440d28e35c75",
    ("paraboloid-offset", "conchoid:1/2"): "4d0b26d9c4aa2d00537e97c17b821b9269d7b63f8027d773c5ba86316bae1d6a",
    ("paraboloid-pedal", "self"): "729afaeb02085da434aee3c01d89d77155d61c03e300b83aa36e91d75bdb6ac1",
    ("paraboloid-pedal", "pedal"): "729afaeb02085da434aee3c01d89d77155d61c03e300b83aa36e91d75bdb6ac1",
    ("paraboloid-pedal", "inverse-pedal"): "074d646fda105ec26636a01fde83b179678eb145badff68c3f87a3963f9ac725",
    ("paraboloid-pedal", "offset:1/2"): "2089fbfcee9d93e98863d1d2fd6481dfd307520b405550a488f46f7572dea1b5",
    ("paraboloid-pedal", "conchoid:1/2"): "051a53f9641376d3e4e01ab22b3cace9834cc2eec75224d13db840df51c580bf",
    ("plane-conchoid", "self"): "f2b86bb078e3ffa57c6988d4fb45fba0635d640cdb88b7ea63c38324ec176573",
    ("plane-conchoid", "pedal"): "f2b86bb078e3ffa57c6988d4fb45fba0635d640cdb88b7ea63c38324ec176573",
    ("plane-conchoid", "inverse-pedal"): "2c4c225f75401738db9345cd682288721521f964bc4293e2d24858674c924e87",
    ("plane-conchoid", "offset:1/2"): "9abcad008fd04bd10b724e09850b9b82fd1bf0ff589559d40d63440d28e35c75",
    ("plane-conchoid", "conchoid:1/2"): "4d0b26d9c4aa2d00537e97c17b821b9269d7b63f8027d773c5ba86316bae1d6a",
    ("pluecker", "self"): "27c0f3ddc8c138318ab9a752c302b174e3e43f2acc34bf1d044aa19dbefeb961",
    ("pluecker", "pedal"): "9a2a72c49f488ac76a2069be3bb6a8ad7d82d4c247d639c2cefbca9da149be05",
    ("pluecker", "inverse-pedal"): "dba4e7bda820f8d9208ac08be71da790826f2e86d5327cc3784dd191af14a4ec",
    ("pluecker", "offset:1/2"): "fda11c04952c6e5b4303bbac4709c0c20fdb6f22a8e02385c04a957067085f47",
    ("pluecker", "conchoid:1/2"): "d5a11dd4ad700c533c06abd0caddb908da0de7d9a5794a4207b86bb8c308a285",
    ("quadratic-cylinder", "self"): "dacffeb9f6aef46d07f55f9eb85f772bd29edd798a7eb3fd27132637af042d32",
    ("quadratic-cylinder", "pedal"): "e7c8513ed77260b59a9d8d45cfdaa1f0adfd80d5a8c298d1ecee727e7698d0bb",
    ("quadratic-cylinder", "inverse-pedal"): "754feb8c876e05569db0767f3eb77a0d6271eaecf568b444b7d359bef302c015",
    ("quadratic-cylinder", "conchoid:1/2"): "2b761255df33aa1f9f0528f0de5398dd96cac20b75ed7748191d37dbab33140d",
    ("sphere-bundle", "self"): "9e3468f137b7c310a8fc6387515295b442e55e71d8b0b672df6e2b624aab3ad3",
    ("sphere-bundle", "inverse-pedal"): "3b0303ce91a245169e9465877ea71b377bcd35411301b516e982721d9afcc498",
    ("sphere-bundle", "conchoid:1/2"): "1b435f07c8d7190afa2c844dab3d6856af72203930dd9a53462e951092dbcb01",
    ("sphere-inverse-pedal", "self"): "9a2d0669da4b45e85628dc40b0fb7fdca529654b8f7c774901c80a42cba58e4a",
    ("sphere-inverse-pedal", "pedal"): "7c02b16e258db6dc9863e500cf64fa121ae90a69b275fc32dc338d3039d9912f",
    ("sphere-inverse-pedal", "inverse-pedal"): "7fa96ad830cc9f9e4624e2cb6c83924ba660dd0c4368e273508fa84939ce0277",
    ("sphere-offset", "self"): "9a2d0669da4b45e85628dc40b0fb7fdca529654b8f7c774901c80a42cba58e4a",
    ("sphere-offset", "pedal"): "7c02b16e258db6dc9863e500cf64fa121ae90a69b275fc32dc338d3039d9912f",
    ("sphere-offset", "inverse-pedal"): "857ac610420f21b225be5d7783b091be4e3fffd04c25f1532f594b5f8734b04f",
    ("sphere-offset", "offset:1/2"): "bde0499aa9974c1f4bb92c825a1d1027c41dcfe306978412eb9ace37a95460a8",
    ("sphere-offset", "conchoid:1/2"): "244404a612b7090112526e43968175590013f6fbb243f1d775b8fb1c90337b65",
    ("polar", "self"): "dbf1d07f2b157b4da778a4740e93ee2b7b9689b9a7078b6b0ffc78cecba25a41",
    ("polar", "pedal"): "7f543febd1eaf3d219779b278e322edb05d9169b92615058fee105614598a48b",
    ("polar", "inverse-pedal"): "6073d464a14b3b14ea65588a9c681e1dcd30fd8acf89b898263285d5b40db7e3",
    ("polar", "offset:1/2"): "158949fa988b1dd0c03def1c99898a5d75ec7ceb0617e60ba732868de1fc0ddd",
    ("polar", "conchoid:1/2"): "3ff9e9a791c61c9a5e6e3c5cb0d1ca2aaf8e03fc34df7b739c76ad777cd39946",
    ("point", "self"): "18e22dfa2d991a14157af546be2afb597bcb2a044caf201fc9ebdc95de223fed",
    ("point", "pedal"): "ca231022806b2610bfe9fe8b916b06e42b9f49d7e04232e090ef4ec41b856fef",
    ("point", "inverse-pedal"): "90cb288bca7e4fa1aeeb728726459883765fe7966a7706afa88fe4cf33ab8218",
    ("point", "offset:1/2"): "659d5c39048da2bc93ca088a12fae5716bc07104d961300112d744f1effb316f",
    ("point", "conchoid:1/2"): "4f818299854e6b9e6ce438fac721cfa3c5f8b6b331d0375558bb5582050d6db3",
    ("dual", "self"): "a9d8862c2d0bc42aae62a817eba6955c59e2ff9b54683ccbe482d5d76745cf98",
    ("dual", "pedal"): "2bcaf1e80e5c6cc8876117177e7e9bd32b20f1450f1da6631a16f1a02c955fa3",
    ("dual", "inverse-pedal"): "24e4d04dbcd9e9d0c457f3077f2e764ba81116dd39e7fcdbdadf9260316e5170",
    ("dual", "offset:1/2"): "a6b4248f0c2e3d208cb11751bbf5b92e8039f09a9e7997b5272a49defc0ec7de",
    ("dual", "conchoid:1/2"): "951b4a6816afeeba2370cbe28779fd995f8612a683dd228a3751ffed2828f567",
    ("ruled", "self"): "1a8edf155b0bd237e2e6e19f4669017c6a05efd4a925d248a41a46b0a96e6934",
    ("ruled", "pedal"): "1c33e603baf453a951471d8106b297523727580073a74474d7cd9605ceaada8b",
    ("ruled", "inverse-pedal"): "39ea13b4fe3ff1e433ad62a1df36478fbd1066c595aa3766e7826c3217d17b13",
    ("ruled", "offset:1/2"): "a5ddb812506cb6942eacd1693f5197c60413649af0e29f4fd7144a35a02da5b5",
    ("ruled", "conchoid:1/2"): "e2fe5d780215b3bb3332227bab7b471e163fd1867cfe4a56dc45ffd88e8c8e90",
    ("power-point", "self"): "df570296e8d7950db1db63564a2a8be04142d1735adb985cf0f4df1f89a31a59",
    ("power-point", "pedal"): "0b8f91c412d29c01f89c938eedc927ac3aecd69dbf884b73cd8caf6353c1337b",
    ("power-point", "inverse-pedal"): "2bb59c7e95a370198c6fd39552c58c8cd41b856449d202c74f779c9daef40670",
    ("power-point", "offset:1/2"): "8146329acf9d67366e9d5d6727ac2c920b024f020714d011d611b96cbd60cdd8",
    ("power-point", "conchoid:1/2"): "41b23b576111a3c891104ae275937479969c892400c389db875f0d8be305fe11",
    ("power-dual", "self"): "99c0f018cf755dcb6183451cd76b2773406e28b7033e9ad137b61fdaa4aeb1b3",
    ("power-dual", "pedal"): "9a0c618fa081d2c8325196f2cefdb42cf41a3db47219228dfb67b1bd4f52606c",
    ("power-dual", "inverse-pedal"): "3b4986a130751715672516a60226debaf195ee09bae2782ea160fdea779257d7",
    ("power-dual", "offset:1/2"): "30f19bd8b132141f2ee9c1124dbb05cfa4c7df433634b77436ce569afbc3bd6d",
    ("power-dual", "conchoid:1/2"): "f73ce9b877e8e239431a12dbde60f8f995c818aeffe60532930b7b36d8f80165",
}


@pytest.mark.parametrize("surface,construct", sorted(DIGESTS))
def test_obj_digest(tmp_path, capsys, surface, construct):
    assert sample_digest(tmp_path, surface, construct) == (0, DIGESTS[surface, construct])
