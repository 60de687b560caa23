package main

// Recorded output digests. A change that alters any of them changes
// the program's behaviour, not only its speed.

// campaignFigureDigest and campaignDatasetDigest are the sha256 of the
// campaign's rendered Figures 5-10a and of its dataset's JSON. The
// campaign's output does not depend on the seed.
const (
	campaignFigureDigest  = "df124bffe17900dab28a8fa3af9030eaa8cff8121f8062916152c8765c1acc65"
	campaignDatasetDigest = "ffd1b984598d1fbefe57f95bd8f8a123a14643a4de75f91b48c482c7f5d7c0bc"
)

// loadDigests maps a seed to the sha256 of the load workload's
// fingerprint: its full traffic.Stats and flow-completion histogram.
var loadDigests = map[int64]string{
	1:  "c003a9559a8dd5471ca4673d249d7071edd31af40926becac00a187ff55912c6",
	2:  "7dec9df35e1a08196205f0d076495ccb00608091dcf17f56aa9c8f2735193ba5",
	3:  "90f88b95809bf7eeb5e02c8a5ac3a14d4b339118d03266302bb16fd988890f6f",
	4:  "8a9e584d9c28b37461e56c77bf97330386a508bb5dbe51081fb3074ce46e5356",
	5:  "7df58327845b9fe91446a75cedb5d10c980c71150791000246ad0eb3a10ea0e4",
	6:  "c83244ec03346f3b2bd6e3db37553737f19edc30221b5756da5abdb3573e78a0",
	7:  "f8e3e1fc65af1875c6e56c796f57638b1a9ba35f97146ae6de2b6ada186fb029",
	8:  "bbf3bdd884e66bcc4f06129faaca4fa18eb5b071b3ec33ade632b4d3be8e2fbf",
	9:  "103226c3e0f6b8f38637838d0e943c6b62269bc305ab5529d4f25056ce60ad94",
	10: "1d3683bbfa5239e97e030fb0b66ee4bb921008389d8f9c603d8ae93f6c090827",
}

// signedDigests maps a seed to the sha256 chain over the per-pair path
// fingerprints of the signed workload's first churnCheckOps ops.
var signedDigests = map[int64]string{
	1:  "71e618ab8be1cb2b22b8537d4f9d952c82097553e14b27c72c6f8cee0261ba05",
	2:  "c80133ff04cbc45fbe9472fafb1f168105442a99b7652df9a5fe2397eae78537",
	3:  "f55e45f1db9872643900006742d26d8ecbdc73a5198869fc9f5f4f4f8da96ded",
	4:  "3db02ed7b900bec831fc8a5fbbf3ce4314b46a186070eb61f39e546f3dd18f0b",
	5:  "f4bd839cca7b703d5a2ae706fda9bf377d696ac4191c72ab579a67fbd0a90c49",
	6:  "dba0cd8f4ce449897af0859e39744338dc231420e3f9ef02c2d0b611de051230",
	7:  "337799b77c8641a5e732b642aa4a681a4f71d50149bbb14d48b6d44e5511d1cc",
	8:  "02ede129c6f36a879524a6c7a6c41c81cc5d7d2894b1da7f90fef2d694c8e0b0",
	9:  "d7f02cff12a5de44575bdfa554b526c6202107902087be1b1417756a3ba9132d",
	10: "bda069e8e66abe8502ce8c1f1251ed72e613316bfe34bc6039b443d3c44115ba",
}
