"""Byte-exact golden hashes of CLI stdout at q = 3, 5, 9, 25 and 27.

The hashes are SHA-256 of everything `main(argv)` prints. They pin the
`module` reports (matrices, filtrations, irreducibility) as well as
`bijection`, `obstruction`, `orbits` and two `verify-relations` runs (two
random streams through the suites), so that refactors of the rings,
matrices and modules underneath cannot change any output silently.  The `--p 3 --f 2` entries (q = 9) pin the
f > 1 tower path, where GF(q^2) = GF(81) has a degree-4 modulus over GF(3).
The `--p 5 --f 2` (q = 25) and `--p 3 --f 3` (q = 27) `bijection` entries
pin criterion 9 at scale: 187200 and 255528 parameter classes.
"""

import hashlib

import pytest

from heckedem.cli import main

GOLDEN = {
    "--p 3 module --theta 0,g^4": "3bfe47d265a8d1f191055b9f60dd65caef2ad8782e2dc3003eed9ce43575f13a",
    "--p 3 module --theta g,g^2": "1e9c183f6531fa69d91eba2c973fb03d2264bd7089c380a7b4a9e53a55fdba40",
    "--p 3 module --b g^4": "6bdd9028cfbab112a505a8a8dfc7ec82fe2581d91a81eef33b7cc98e3e586733",
    "--p 3 bijection": "15c554609dd7138258da5fdaa4ab83fdecb32b34cc4eda492e2c48326d7f62a1",
    "--p 3 obstruction": "12d8878a79b1598d686d7fd80cd21fa601a58afa7e21eefffefc60f58f16d323",
    "--p 3 orbits": "46780e29a6811ea32bf12aad05acb38c765a8466daede2fefa2a742394fe54ac",
    "--p 5 module --theta 0,g^4": "bbeebb4c4c39bea2be7be29e678f5ac0d1ba178885388be74178f32ab2638a9e",
    "--p 5 module --theta g,g^2": "2696fd77bf6e8ffeb781b720ca503f42b315234f88e509e8c5926fc7df08ec76",
    "--p 5 module --b g^4": "6bdd9028cfbab112a505a8a8dfc7ec82fe2581d91a81eef33b7cc98e3e586733",
    "--p 5 bijection": "ec5c112a4f420480c4e8cb2ce92648ed89064c109927cb8b76442979a7681845",
    "--p 5 obstruction": "12d8878a79b1598d686d7fd80cd21fa601a58afa7e21eefffefc60f58f16d323",
    "--p 5 orbits": "f5d26ab333f6c47ec02402f1490d0a8513619d3ecf4f393a9888b8970351d5eb",
    "--p 3 --f 2 bijection": "1286dd5d8d92c6177743f21cb4792c28125f8461efb8ed81e0fd55a4e3d6787e",
    "--p 5 --f 2 bijection": "de37a7bbdae6994477b3a5554259822f65bc469d50cd6fae4586a175e722365d",
    "--p 3 --f 3 bijection": "de55bb85f0a13cf92c6ad8207dcf737e87366971fb8c509c5ce55429cb8db770",
    "--p 3 --f 2 orbits": "ed81e2a28aeaaf4829e860f7bf8ce9628d3a0a844eb999a44abe49448c7a6083",
    "--p 3 --f 2 module --theta 0,g^10": "664348f931c7e6da2910c4303286ffff7c3266cfd57ee9bb2569e1ebfc4a031c",
    "--p 3 --f 2 module --theta g,g^2": "a10e4c644a79a2fb50d2cffa48ff9a8b8126e8a69c8a32407b2dcee28ef7d512",
    "--p 3 --f 2 module --b g^4": "6bdd9028cfbab112a505a8a8dfc7ec82fe2581d91a81eef33b7cc98e3e586733",
    "--p 3 verify-relations --seed 0": "50a91bf84d3c2e557414283a5ef84cea2e9220c3a759308b3b2dd2329b7b4c3a",
    "--p 3 verify-relations --seed 7": "8a086a2a91b6edeae28aaf712728b1ba884cba8d42d990063c1fa280c95bab8d",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stdout_matches_golden(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
