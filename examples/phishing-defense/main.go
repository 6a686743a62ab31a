// Phishing defense: the paper's attack scenarios (§3.2, §3.4, §5.2) played
// out against a live TinMan world:
//
//  1. a repackaged (phishing) app tries to use the stored password and is
//     refused by the app↔cor binding;
//
//  2. a compromised device tries to exfiltrate the password to a rogue
//     domain and is refused by the cor↔domain binding;
//
//  3. a stolen device is revoked and loses all access;
//
//  4. the Figure 7 attack: why implicit-IV (TLS 1.0) session sync would
//     leak cor plaintext, and how TinMan's version floor prevents it.
//
//     go run ./examples/phishing-defense
package main

import (
	"context"
	"crypto/aes"
	"fmt"
	"log"
	"strings"

	"tinman/internal/apps"
	"tinman/internal/core"
	"tinman/internal/netsim"
	"tinman/internal/tlssim"
)

const legitimateSource = `
class FaceLook
  method login 3 12
    invoke r3, FaceLook.buildRequest, r0, r1
    native r4, https_request, r2, r3
    conststr r5, "200 OK"
    indexof r6, r4, r5
    const r7, 0
    iflt r6, r7, fail
    const r8, 1
    return r8
  fail:
    const r8, 0
    return r8
  end
  method buildRequest 2 10
    hash r2, r1
    conststr r3, "POST /login HTTP/1.1\nuser="
    strcat r4, r3, r0
    conststr r5, "&hash="
    strcat r6, r4, r5
    strcat r7, r6, r2
    return r7
  end
end`

// phishingSource looks the same to the user but its code differs (it also
// copies the credential into an extra field) — so its dex hash differs.
const phishingSource = `
class FaceLook
  field stolen
  method login 3 14
    new r9, FaceLook
    iput r1, r9, stolen      ; squirrel the credential away
    invoke r3, FaceLook.buildRequest, r0, r1
    native r4, https_request, r2, r3
    const r8, 1
    return r8
  end
  method buildRequest 2 10
    hash r2, r1
    conststr r3, "POST /login HTTP/1.1\nuser="
    strcat r4, r3, r0
    conststr r5, "&hash="
    strcat r6, r4, r5
    strcat r7, r6, r2
    return r7
  end
end`

func main() {
	world, err := core.NewWorld(core.Config{Seed: 4, Profile: netsim.WiFi, TinManEnabled: true})
	if err != nil {
		log.Fatal(err)
	}
	const password = "social-secret-1234"
	if _, err := apps.NewOriginServer(world, "facelook.example", "203.0.113.50",
		map[string]string{"dave": password}); err != nil {
		log.Fatal(err)
	}
	// An attacker-controlled host is reachable from the device.
	if _, err := apps.NewOriginServer(world, "attacker.example", "198.51.100.99", nil); err != nil {
		log.Fatal(err)
	}
	if _, err := world.Node.RegisterCor("fl-pw", password, "FaceLook password", "facelook.example"); err != nil {
		log.Fatal(err)
	}
	if err := world.Device.RefreshCatalog(); err != nil {
		log.Fatal(err)
	}

	official, err := world.Device.InstallApp("facelook", legitimateSource, 64)
	if err != nil {
		log.Fatal(err)
	}
	world.Node.BindApp("fl-pw", official.Hash())
	fmt.Printf("official app installed, dex hash %s... bound to fl-pw\n", official.Hash()[:12])

	login := func(app *core.App, class, host string) error {
		pw, err := world.Device.CorArg(app, "fl-pw")
		if err != nil {
			return err
		}
		_, err = app.Run(class, "login",
			world.Device.StringArg(app, "dave"), pw, world.Device.StringArg(app, host))
		return err
	}

	// Baseline: the official app logs in fine.
	if err := login(official, "FaceLook", "facelook.example"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("1. official app login: OK")

	// Attack 1: the phishing app (different hash) is refused at offload.
	phish, err := world.Device.InstallApp("facelook-phish", phishingSource, 64)
	if err != nil {
		log.Fatal(err)
	}
	err = login(phish, "FaceLook", "facelook.example")
	fmt.Printf("2. phishing app (hash %s...): %v\n", phish.Hash()[:12], err)
	if err == nil || !strings.Contains(err.Error(), "app not bound") {
		log.Fatal("phishing app was not denied")
	}

	// Attack 2: a compromised device points the official app at a rogue
	// domain; the cor<->domain binding refuses the send.
	err = login(official, "FaceLook", "attacker.example")
	fmt.Printf("3. official app -> attacker.example: %v\n", err)
	if err == nil || !strings.Contains(err.Error(), "whitelist") {
		log.Fatal("rogue domain was not denied")
	}

	// Attack 3: the phone is stolen; the user revokes it from any browser.
	if err := world.Node.Svc.Revoke(world.Device.ID); err != nil {
		log.Fatal(err)
	}
	err = login(official, "FaceLook", "facelook.example")
	fmt.Printf("4. revoked device: %v\n", err)
	if err == nil || !strings.Contains(err.Error(), "revoked") {
		log.Fatal("revoked device was not denied")
	}
	if err := world.Node.Svc.Restore(world.Device.ID); err != nil {
		log.Fatal(err)
	}

	// Attack 4 (fig 7): demonstrate the implicit-IV leak TinMan's TLS
	// floor exists to prevent. Build a TLS 1.0 CBC session out-of-band,
	// sync it to a simulated node, and recover the cor block on the
	// "device" from nothing but the synced chain state.
	fmt.Println("\nFigure 7 demonstration (why TLS 1.0 is forbidden):")
	demoImplicitIVLeak()

	// And the enforcement: a TLS 1.0-only origin is refused outright.
	legacy, err := apps.NewOriginServer(world, "legacy.example", "192.0.2.80", map[string]string{"dave": password})
	if err != nil {
		log.Fatal(err)
	}
	legacy.MaxVersion = tlssim.TLS10
	// Widen the cor's whitelist: export the enforced document, edit it and
	// install it whole (dropping the version takes the next one).
	doc := world.Node.Policy.Export()
	doc.Version = 0
	doc.AllowDomains("fl-pw", []string{"facelook.example", "legacy.example"})
	if _, err := world.Node.Svc.InstallPolicy(context.Background(), doc); err != nil {
		log.Fatal(err)
	}
	err = login(official, "FaceLook", "legacy.example")
	fmt.Printf("5. TLS1.0-only origin: %v\n", err)
	if err == nil || !strings.Contains(err.Error(), "below required minimum") {
		log.Fatal("TLS1.0 origin was not refused")
	}

	fmt.Println("\nall four defenses engaged; audit trail has", world.Node.Audit.Len(), "entries and",
		len(world.Node.Audit.Anomalies()), "anomaly reports")
}

// demoImplicitIVLeak reproduces the arithmetic of Figure 7 with a real AES
// key and chain state, exactly as a malicious device would.
func demoImplicitIVLeak() {
	key := []byte("0123456789abcdef") // the device knows the session key
	c11 := make([]byte, 16)           // device's last ciphertext block
	for i := range c11 {
		c11[i] = byte(0x40 + i)
	}
	cor := []byte("pin=9137;amount!") // one block of secret, sealed by the node
	block, err := aes.NewCipher(key)
	if err != nil {
		log.Fatal(err)
	}
	// The node CBC-encrypts the cor chained on C11 (TLS 1.0 semantics) and
	// must return its last ciphertext block, C12, for the device to
	// continue the session.
	c12 := make([]byte, 16)
	for i := range c12 {
		c12[i] = cor[i] ^ c11[i]
	}
	block.Encrypt(c12, c12)

	recovered, err := tlssim.RecoverImplicitIVBlock(key, c11, c12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   device computes P12 = D(C12) XOR C11 = %q\n", recovered)
	if string(recovered) != string(cor) {
		log.Fatal("leak demonstration failed")
	}
	fmt.Println("   -> the synced chain state alone leaks the cor block (CVE-2011-3389 era)")
}
